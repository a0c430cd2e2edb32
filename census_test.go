package fuzzybarrier_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
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
