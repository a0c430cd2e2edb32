package fuzzybarrier_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// dupAllowList names pairs of functions that TestDuplicateCensus finds
// sharing a normalized body or statement run, and says why each pair
// stays two copies. Keys are "a ≡ b" with a < b, each side "pkg.Func" or
// "pkg.Type.Method" (pkg is the directory under internal/, or the path
// from the root for cmd/ and examples/).
var dupAllowList = map[string]string{
	"cluster.parEngine.maxNow ≡ machine.Result.Syncs":  "a coincidental max loop over different types (event times, sync counts); maxNow goes with the sharded engine, ROADMAP item 4",
	"compiler.Layout.Array ≡ lang.Program.Array":       "a lookup by name over different element types (a placed array, a declared one)",
	"core.HierBarrier.Undos ≡ core.combTree.Probes":    "two different counters (undone overshoots, leaf probes) summed over different node types",
	"transport.ChanNet.Close ≡ transport.UDPNet.Close": "detach-all over different endpoint types (*rtEndpoint, *udpEndpoint); sharing it needs a type parameter for six lines",
}

// The duplicate census's two thresholds. They are part of the test's
// definition, not knobs: a body of dupMinBody statements is the smallest
// that caught the splitmix64 mixers, and a run of dupRun statements is
// what a copied stanza inside a larger function looks like.
const (
	dupMinBody = 4 // statements in a function body, counted recursively
	dupRun     = 5 // consecutive statements of one block
)

// TestDuplicateCensus fails on two functions of the main module that
// share code: a whole body of at least dupMinBody statements, or a run of
// dupRun consecutive statements in one block (case clauses count as the
// statements of a switch). Each unit is hashed with its identifiers
// renamed in order of first appearance and its literals kept, so a copy
// that renamed its variables or changed its types still matches, and a
// table of different strings does not. A pair is allowed only with a
// reason in dupAllowList, and an entry whose pair no longer matches fails
// too. Test files are out of scope (a test oracle may copy on purpose),
// except internal/core's: its split barriers share one contract suite
// (contract_test.go), and the census keeps that suite one copy. bench/,
// a module of its own, is out of scope too.
func TestDuplicateCensus(t *testing.T) {
	fset := token.NewFileSet()
	owners := map[[sha256.Size]byte][]string{} // unit hash -> the functions holding it
	add := func(stmts []ast.Stmt, fn string) {
		h := sha256.Sum256(normalized(stmts))
		if fns := owners[h]; !slices.Contains(fns, fn) {
			owners[h] = append(fns, fn)
		}
	}
	err := walkGo(fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") && filepath.ToSlash(filepath.Dir(path)) != "internal/core" || inBench(path) {
			return
		}
		pkg := pkgName(path)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				fn = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			if countStmts(fd.Body) >= dupMinBody {
				add(fd.Body.List, fn)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				}
				for i := 0; i+dupRun <= len(list); i++ {
					add(list[i:i+dupRun], fn)
				}
				return true
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, fns := range owners {
		slices.Sort(fns)
		for i, a := range fns {
			for _, b := range fns[i+1:] {
				found[a+" ≡ "+b] = true
			}
		}
	}
	for _, pair := range sortedKeys(found) {
		if dupAllowList[pair] == "" {
			t.Errorf("duplicate code: %s; merge the two, or allow-list the pair with a reason", pair)
		}
	}
	for _, pair := range sortedKeys(dupAllowList) {
		if !found[pair] {
			t.Errorf("allow-listed %s no longer matches: drop it from dupAllowList", pair)
		}
	}
}

// normalized prints stmts one per line with every identifier renamed to
// its order of first appearance, restoring the names afterwards. The
// printer gets an empty file set, so the source's line breaks and blank
// lines do not reach the text; comments are never printed.
func normalized(stmts []ast.Stmt) []byte {
	var idents []*ast.Ident
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents = append(idents, id)
			}
			return true
		})
	}
	names := make([]string, len(idents))
	order := map[string]string{}
	for i, id := range idents {
		names[i] = id.Name
		if order[id.Name] == "" {
			order[id.Name] = "v" + strconv.Itoa(len(order))
		}
	}
	for _, id := range idents {
		id.Name = order[id.Name]
	}
	var buf bytes.Buffer
	empty := token.NewFileSet()
	for _, s := range stmts {
		printer.Fprint(&buf, empty, s)
		buf.WriteByte('\n')
	}
	for i, id := range idents {
		id.Name = names[i]
	}
	return buf.Bytes()
}

// countStmts counts the statements under n, nested ones included; a
// block's braces are not a statement of their own.
func countStmts(n ast.Node) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(ast.Stmt); ok {
			if _, block := n.(*ast.BlockStmt); !block {
				count++
			}
		}
		return true
	})
	return count
}

// optionAllowList names exported option fields that no code outside
// their own package's non-test files sets, and says why each stays an
// option. Keys are "pkg.Type.Field".
var optionAllowList = map[string]string{}

// flagFuncs are the flag package's functions that register a flag.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// TestOptionsCensus logs one line counting the knobs a user of the repo
// can turn: exported fields of the *Config and *Options structs under
// internal/, flags per cmd/ tool (a tool also counts the flags of the
// internal packages it imports), exported Default* and Max* constants,
// and environment variables read (tests included). Simplicity PRs quote
// it as "options before → after". It fails on an option field that no
// code outside its own package's non-test files sets — not a test, not
// a command, not bench/ — unless optionAllowList gives a reason: such a
// field is a knob nobody turns. Like TestEveryExportIsUsed it reads
// source only, so a field counts as set when any such code assigns, keys
// or takes the address of a field of that name.
func TestOptionsCensus(t *testing.T) {
	fset := token.NewFileSet()
	var fields []string                   // "pkg.Type.Field" of every option field
	setBy := map[string]map[string]bool{} // field name -> the packages whose non-test code sets it ("" for the rest)
	toolFlags := map[string]int{}         // cmd tool -> flags it registers itself
	pkgFlags := map[string]int{}          // internal package -> flags it registers
	toolImports := map[string][]string{}  // cmd tool -> the internal packages it imports
	var consts []string
	env := map[string]bool{}
	err := walkGo(fset, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		inModule := !inBench(path)
		own := strings.TrimPrefix(dir, "internal/")
		from := ""
		if own != dir && !test {
			from = own
			fields = append(fields, optionFields(f, own)...)
		}
		tool := strings.TrimPrefix(dir, "cmd/")
		if tool != dir && !test {
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if _, pkg, ok := strings.Cut(p, "fuzzybarrier/internal/"); ok && !slices.Contains(toolImports[tool], pkg) {
					toolImports[tool] = append(toolImports[tool], pkg)
				}
			}
		}
		if inModule && !test {
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
					for _, spec := range g.Specs {
						for _, n := range spec.(*ast.ValueSpec).Names {
							if n.IsExported() && (strings.HasPrefix(n.Name, "Default") || strings.HasPrefix(n.Name, "Max")) {
								consts = append(consts, n.Name)
							}
						}
					}
				}
			}
		}
		set := func(e ast.Expr) {
			if s, ok := e.(*ast.SelectorExpr); ok {
				e = s.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if setBy[id.Name] == nil {
					setBy[id.Name] = map[string]bool{}
				}
				setBy[id.Name][from] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				set(n.Key)
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if _, ok := l.(*ast.SelectorExpr); ok {
						set(l)
					}
				}
			case *ast.UnaryExpr:
				if _, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set(n.X)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x, ok := sel.X.(*ast.Ident)
				switch {
				case !ok || !inModule:
				case x.Name == "flag" && flagFuncs[sel.Sel.Name] && !test && tool != dir:
					toolFlags[tool]++
				case x.Name == "flag" && flagFuncs[sel.Sel.Name] && !test && own != dir:
					pkgFlags[own]++
				case x.Name == "os" && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") && len(n.Args) == 1:
					if lit, ok := n.Args[0].(*ast.BasicLit); ok {
						name, _ := strconv.Unquote(lit.Value)
						env[name] = true
					}
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var perTool []string
	flags := 0
	for _, tool := range sortedKeys(toolImports) {
		n := toolFlags[tool]
		for _, pkg := range toolImports[tool] {
			n += pkgFlags[pkg]
		}
		flags += n
		perTool = append(perTool, fmt.Sprintf("%s %d", tool, n))
	}
	t.Logf("options census: %d config fields, %d flags (%s), %d Default*/Max* constants, %d env vars (%s)",
		len(fields), flags, strings.Join(perTool, ", "), len(consts), len(env), strings.Join(sortedKeys(env), ", "))

	var unset []string
	for _, key := range fields {
		pkg, rest, _ := strings.Cut(key, ".")
		_, field, _ := strings.Cut(rest, ".")
		if by := setBy[field]; len(by) == 0 || len(by) == 1 && by[pkg] {
			unset = append(unset, key)
		}
	}
	for _, key := range unset {
		if optionAllowList[key] == "" {
			t.Errorf("option %s is set only by its own package's code: unexport it, delete it, or allow-list it with a reason", key)
		}
	}
	for _, key := range sortedKeys(optionAllowList) {
		if !slices.Contains(unset, key) {
			t.Errorf("allow-listed option %s is set elsewhere or gone: drop it from optionAllowList", key)
		}
	}
}

// optionFields returns "pkg.Type.Field" for each exported field of f's
// struct types whose name ends in Config or Options.
func optionFields(f *ast.File, pkg string) (out []string) {
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.TYPE {
			continue
		}
		for _, spec := range g.Specs {
			s := spec.(*ast.TypeSpec)
			st, ok := s.Type.(*ast.StructType)
			if !ok || !strings.HasSuffix(s.Name.Name, "Config") && !strings.HasSuffix(s.Name.Name, "Options") {
				continue
			}
			for _, fld := range st.Fields.List {
				for _, n := range fld.Names {
					if n.IsExported() {
						out = append(out, pkg+"."+s.Name.Name+"."+n.Name)
					}
				}
			}
		}
	}
	return out
}

// reachAllowList names functions that TestReachabilityCensus finds
// reached by no program, and says why each stays. Keys are "pkg.Func" or
// "pkg.Type.Method", named as in dupAllowList (never an examples/ one:
// the census does not report examples); a "pkg.Type" key covers every
// method of that type.
var reachAllowList = map[string]string{
	"check.MutationDropRelease": seededFault,
	"check.MutationRetagStale":  seededFault,
	"isa.NewMarkerBuilder":      "builds BENTER/BEXIT marker programs, which fuzzsim reaches only through the assembler; the root BenchmarkAblationRegionEncoding and the machine's marker tests build with it, and ROADMAP item 12(c) gives that ablation a bench/ row or keeps it",
}

const seededFault = "a seeded protocol fault: the model checker's tests switch it on to show the violation is caught"

// TestReachabilityCensus fails on a function of the main module that no
// program runs. Code under internal/ is reached only through the module's
// programs — the cmd/ tools and bench/ — so a function none of them
// reaches is code that only its own test or an example keeps alive. An
// example shows how to call the product; it is not a program the product
// exists for. The census type-checks the non-test files of every package
// (bench/ is read for its roots, never reported; examples/ is neither a
// root nor reported) and walks from the roots: every main and init
// function, and every package-level var declaration except an interface
// assertion (var _ I = (*T)(nil)). A reached declaration reaches each
// function, method and type its syntax uses, a generic instance standing
// for its origin; a reached type reaches its declaration. A method is
// also reached through dynamic dispatch when its receiver type is reached
// and some interface, the module's or the standard library's, has a
// method of its name. That over-approximates, so the census never flags a
// live function. It logs one line to quote before → after, and fails on
// an unreached function missing from reachAllowList and on an entry that
// no longer matches.
func TestReachabilityCensus(t *testing.T) {
	dead, err := unreached(".", "fuzzybarrier")
	if err != nil {
		t.Fatal(err)
	}
	line, problems := reachVerdict(dead, reachAllowList)
	t.Log(line)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestReachabilityCensusFixture runs the census on testdata/reach, a
// program with one dead function beside each way a live one is reached
// other than by a plain call, and a library function only an example
// calls, and wants exactly those two; then it checks the verdict on the
// dead method under four allow-lists.
func TestReachabilityCensusFixture(t *testing.T) {
	dead, err := unreached("testdata/reach", "reach")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"main.circle.area": 3, "lib.Demo": 2}; !maps.Equal(dead, want) {
		t.Fatalf("census of testdata/reach = %v, want %v", dead, want)
	}
	delete(dead, "lib.Demo")
	for _, c := range []struct {
		allow    map[string]string
		problems int
	}{
		{nil, 1}, // a finding nobody allowed
		{map[string]string{"main.circle.area": "why"}, 0},
		{map[string]string{"main.circle": "why"}, 0},                       // a type key covers its methods
		{map[string]string{"main.circle": "why", "main.square": "why"}, 1}, // a stale entry
	} {
		if _, problems := reachVerdict(dead, c.allow); len(problems) != c.problems {
			t.Errorf("allow-list %v: problems %q, want %d", c.allow, problems, c.problems)
		}
	}
}

// reachVerdict returns the census line for the unreached functions in
// dead, and one problem for each that allow does not cover and for each
// entry of allow that covers none.
func reachVerdict(dead map[string]int, allow map[string]string) (line string, problems []string) {
	lines, allowed := 0, 0
	matched := map[string]bool{} // allow-list keys that cover a finding
	for _, fn := range sortedKeys(dead) {
		lines += dead[fn]
		key := fn
		if i := strings.LastIndexByte(fn, '.'); allow[key] == "" && strings.Count(fn, ".") == 2 {
			key = fn[:i] // the method's type
		}
		if allow[key] == "" {
			problems = append(problems, fmt.Sprintf("%s (%d lines) is reached by no program: delete it, move it into a _test.go file if tests of live code use it, or allow-list it with a reason", fn, dead[fn]))
			continue
		}
		matched[key] = true
		allowed++
	}
	for _, key := range sortedKeys(allow) {
		if !matched[key] {
			problems = append(problems, fmt.Sprintf("allow-listed %s is reached or gone: drop it from reachAllowList", key))
		}
	}
	return fmt.Sprintf("reachability census: %d functions (%d lines) reached by no program, %d allow-listed", len(dead), lines, allowed), problems
}

// unreached type-checks the non-test Go files of the module at root, whose
// import path is module, and returns each function no program reaches,
// keyed as in reachAllowList, with its length in lines, doc comment
// included. A module nested under root (bench/) is checked for its roots
// and never reported; its import path is its directory's under module.
// The packages under examples/ are checked, and neither root the walk
// nor are reported.
func unreached(root, module string) (map[string]int, error) {
	type pkg struct {
		name    string // the census name: the path under internal/, or from root
		program bool   // its main, init and package vars are roots
		report  bool
		files   []*ast.File
		checked *types.Package
	}
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{} // import path -> package
	std := map[string]bool{}  // the imports from outside the module
	var nested []string       // directories holding a go.mod of their own
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != root {
			nested = append(nested, rel)
		}
		path := module
		if rel != "." {
			path += "/" + rel
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p := pkgs[path]
			if p == nil {
				under := func(d string) bool { return rel == d || strings.HasPrefix(rel, d+"/") }
				program := !under("examples")
				p = &pkg{name: strings.TrimPrefix(rel, "internal/"), program: program, report: program && !slices.ContainsFunc(nested, under)}
				if rel == "." {
					p.name = f.Name.Name
				}
				pkgs[path] = p
			}
			p.files = append(p.files, f)
			for _, spec := range f.Imports {
				if q, _ := strconv.Unquote(spec.Path.Value); q != module && !strings.HasPrefix(q, module+"/") {
					std[q] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The standard library comes from the export data the go command has
	// built, found with one go list call; the module is checked from source.
	exports := map[string]string{}
	cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, sortedKeys(std)...)...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkgs[path] == nil {
			return gc.Import(path)
		}
		return check(path)
	})}
	check = func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p.checked == nil {
			checked, err := conf.Check(path, fset, p.files, info)
			if err != nil {
				return nil, err
			}
			p.checked = checked
		}
		return p.checked, nil
	}

	// Declarations by the object they declare, and the roots.
	type fn struct {
		decl *ast.FuncDecl
		key  string
		pkg  *pkg
	}
	funcs := map[*types.Func]fn{}
	typeSpecs := map[*types.TypeName]*ast.TypeSpec{}
	var queue []ast.Node
	for _, path := range sortedKeys(pkgs) {
		if _, err := check(path); err != nil {
			return nil, err
		}
		p := pkgs[path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := p.name + "." + d.Name.Name
					if d.Recv != nil {
						key = p.name + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					if p.program && d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						queue = append(queue, d)
					} else if obj, ok := info.Defs[d.Name].(*types.Func); ok {
						funcs[obj] = fn{d, key, p}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj, ok := info.Defs[s.Name].(*types.TypeName); ok {
								typeSpecs[obj] = s
							}
						case *ast.ValueSpec:
							assertion := s.Type != nil && types.IsInterface(info.Types[s.Type].Type) &&
								!slices.ContainsFunc(s.Names, func(n *ast.Ident) bool { return n.Name != "_" })
							if p.program && d.Tok == token.VAR && !assertion {
								queue = append(queue, s)
							}
						}
					}
				}
			}
		}
	}

	// The method names dynamic dispatch can call: every interface type the
	// module's code mentions, and every interface declared by a package
	// it imports, directly or not.
	dispatch := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				dispatch[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			scan(q)
		}
	}
	for _, p := range pkgs {
		scan(p.checked)
	}

	// The walk: a reached function queues its declaration, a reached type
	// its declaration and its methods that dynamic dispatch can call.
	reached := map[types.Object]bool{}
	var reach func(obj types.Object)
	reach = func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		switch obj := obj.(type) {
		case *types.Func:
			if f, ok := funcs[obj]; ok {
				queue = append(queue, f.decl)
			}
		case *types.TypeName:
			if s := typeSpecs[obj]; s != nil {
				queue = append(queue, s)
			}
			if named, ok := obj.Type().(*types.Named); ok {
				for i := range named.NumMethods() {
					if m := named.Method(i); dispatch[m.Name()] {
						reach(m)
					}
				}
			}
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				reach(info.Uses[id])
			}
			return true
		})
	}

	dead := map[string]int{}
	for obj, f := range funcs {
		if !reached[obj] && f.pkg.report && f.decl.Name.Name != "_" {
			start := f.decl.Pos()
			if f.decl.Doc != nil {
				start = f.decl.Doc.Pos()
			}
			dead[f.key] = fset.Position(f.decl.End()).Line - fset.Position(start).Line + 1
		}
	}
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// walkGo parses every .go file under the root and calls visit with its
// path and syntax: bench/ included, testdata and dot directories (.git,
// the benchmark's parent checkouts) skipped.
func walkGo(fset *token.FileSet, visit func(path string, f *ast.File)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
}

// inBench reports whether path is in bench/, a module of its own.
func inBench(path string) bool { return strings.HasPrefix(filepath.ToSlash(path), "bench/") }

// pkgName names the package of the file at path for census reports: the
// directory under internal/, the path from the root elsewhere.
func pkgName(path string) string {
	dir := filepath.ToSlash(filepath.Dir(path))
	if dir == "." {
		return "fuzzybarrier"
	}
	return strings.TrimPrefix(dir, "internal/")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
