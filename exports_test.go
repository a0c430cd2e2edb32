package fuzzybarrier_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names exported identifiers under internal/ that nothing
// outside their own package's code refers to, and says why each stays
// exported anyway. Keys are "pkg.Name" or "pkg.Type.Member".
var exportAllowList = map[string]string{
	"barrierd.Shard.Releases":                    shardCounter,
	"barrierd.Shard.Stucks":                      shardCounter,
	"barrierd.StuckReport.Shard":                 "the report is what onStuck callers receive; String prints this field with the rest",
	"core.DefaultSpinLimit":                      "the documented default of the exported SpinLimit knob (SpinLimit = 0 means it)",
	"exp.E9InvalidBranch":                        experiment,
	"exp.E14PhaseAttribution":                    experiment,
	"exp.E16ClusterScaling":                      experiment,
	"exp.E17ModelCheckAndOracle":                 experiment,
	"exp.E20HierScaling":                         experiment,
	"exp.E21ParallelEquivalence":                 experiment,
	"workload.DisseminationBarrierLoop.FlagBase": "a layout option of the generator beside Self, Procs and Work; 0 takes the default",
}

const (
	shardCounter = "one of Shard's four counters, which on SimNet are read between Run calls as Snapshot says"
	experiment   = "an experiment entry point, exported like its siblings E1–E21 and run through All or ByID"
)

// TestEveryExportIsUsed is the unreferenced-export census: it lists every
// exported identifier under internal/ — package-level names, methods and
// struct fields — that no other package, no test, and nothing in cmd/,
// examples/ or bench/ refers to, and fails on any not in exportAllowList:
// such a name is dead, or exported for nobody. Some uses are indirect: a
// type counts as used when a used declaration mentions it (its values
// reach callers through a constructor), an interface's methods when the
// interface is, a constant when another of its const block is (an
// enumeration is one name), and a method when a used interface method has
// its name (it implements it). Two kinds of field are left out: a tagged
// one is read by reflection, and one of a *Config struct is an option,
// which callers may set or not. The test reads source only (go/parser, no
// type checking), so a method or field counts as used when another
// package or a test selects a member of that name: the census can miss a
// dead member whose name is common, but never flags a live one.
func TestEveryExportIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	var exported []export
	qualified := map[string]bool{}          // "pkg.Name" named from another package or a test
	members := map[string]map[string]bool{} // member name -> the packages whose code selects it ("" for the rest)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, the benchmark's parent checkouts, fixtures
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// own is the internal package the file belongs to; from is own for
		// that package's code, and "" for a test or a file outside
		// internal/, whose uses count for every package.
		own, from := "", ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			own = strings.TrimPrefix(dir, "internal/")
		}
		if own != "" && !strings.HasSuffix(path, "_test.go") {
			from = own
			exported = append(exported, exportsOf(f, own)...)
		}
		imports := map[string]string{} // local name -> internal package
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if _, pkg, ok := strings.Cut(p, "fuzzybarrier/internal/"); ok {
				name := filepath.Base(pkg)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = pkg
			}
		}
		selected := func(name string) {
			if members[name] == nil {
				members[name] = map[string]bool{}
			}
			members[name][from] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					selected(n.Sel.Name)
				}
			case *ast.KeyValueExpr: // a keyed field in a composite literal
				if k, ok := n.Key.(*ast.Ident); ok {
					selected(k.Name)
				}
			case *ast.Ident: // a name a test of its own package uses
				if own != "" && from == "" {
					qualified[own+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	implemented := map[string]bool{} // the names of used interface methods
	for grew := true; grew; {
		grew = false
		for _, d := range exported {
			name := d.pkg + "." + d.key
			_, member, isMember := strings.Cut(d.key, ".")
			sel := members[member]
			elsewhere := isMember && (len(sel) > 1 || len(sel) == 1 && !sel[d.pkg])
			if used[name] || !qualified[name] && !elsewhere && !(d.method && implemented[member]) {
				continue
			}
			used[name], grew = true, true
			implemented[member] = implemented[member] || d.iface
			for _, typ := range d.mentions {
				qualified[d.pkg+"."+typ] = true
			}
		}
	}
	var unused []string
	for _, d := range exported {
		if name := d.pkg + "." + d.key; !used[name] {
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if exportAllowList[name] == "" {
			t.Errorf("%s is exported but nothing outside its package's code uses it: delete it, unexport it, or allow-list it with a reason", name)
		}
	}
	for name := range exportAllowList {
		if !slices.Contains(unused, name) {
			t.Errorf("allow-listed %s is used or gone: drop it from exportAllowList", name)
		}
	}
}

// export is one exported identifier of internal package pkg — a
// package-level name as "Name", a method, struct field or interface method
// as "Type.Member" — with the exported names its declaration mentions.
type export struct {
	pkg, key      string
	method, iface bool // a method; an interface's
	mentions      []string
}

// exportsOf returns the exported identifiers f declares for package pkg,
// methods on unexported types included, since embedding promotes them,
// and tagged struct fields left out.
func exportsOf(f *ast.File, pkg string) (out []export) {
	add := func(key string, typ ast.Node, also ...string) *export {
		e := export{pkg: pkg, key: key, mentions: also}
		if typ != nil {
			ast.Inspect(typ, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.IsExported() {
					e.mentions = append(e.mentions, id.Name)
				}
				return true
			})
		}
		out = append(out, e)
		return &out[len(out)-1]
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				add(d.Name.Name, d.Type)
			default:
				add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Type).method = true
			}
		case *ast.GenDecl:
			var block []string // a const block's names, each mentioning all
			for _, spec := range d.Specs {
				if s, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.CONST {
					for _, n := range s.Names {
						block = append(block, n.Name)
					}
				}
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(n.Name, s.Type, block...)
						}
					}
				case *ast.TypeSpec:
					var fields []*ast.Field
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields.List
					case *ast.InterfaceType:
						fields = ty.Methods.List
					}
					_, iface := s.Type.(*ast.InterfaceType)
					var methods []string // an interface's, used with it
					for _, fld := range fields {
						for _, n := range fld.Names { // embedded fields have none
							switch {
							case !n.IsExported() || fld.Tag != nil || strings.HasSuffix(s.Name.Name, "Config"):
							case iface:
								methods = append(methods, s.Name.Name+"."+n.Name)
								e := add(s.Name.Name+"."+n.Name, fld.Type)
								e.method, e.iface = true, true
							default:
								add(s.Name.Name+"."+n.Name, fld.Type)
							}
						}
					}
					if s.Name.IsExported() && fields == nil {
						add(s.Name.Name, s.Type)
					} else if s.Name.IsExported() {
						add(s.Name.Name, nil, methods...) // its fields are exports of their own
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver: T in T, *T, T[P].
func recvName(e ast.Expr) string {
	switch r := e.(type) {
	case *ast.StarExpr:
		return recvName(r.X)
	case *ast.IndexExpr:
		return recvName(r.X)
	case *ast.IndexListExpr:
		return recvName(r.X)
	}
	return e.(*ast.Ident).Name
}
