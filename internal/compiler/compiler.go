// Package compiler is the parallelizing compiler of Section 4: it takes a
// loop nest in the paper's mini-language (internal/lang), distributes the
// parallel loops over processors, identifies the marked instructions via
// dependence analysis, constructs barrier and non-barrier regions
// (optionally applying the three-phase DAG reordering that enlarges the
// barrier regions), and generates per-processor machine code for the
// simulator with the barrier-region bit set on every barrier instruction.
package compiler

import (
	"fmt"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/lang"
)

// ArrayInfo places one declared array in simulated shared memory; its
// Size is the number of words it occupies.
type ArrayInfo struct {
	lang.ArrayDecl
	Base int64
}

// Layout assigns shared-memory addresses to the program's arrays.
type Layout struct {
	Arrays []ArrayInfo
	Words  int64 // total words used (arrays plus origin padding)
}

// NewLayout packs the declared arrays starting at origin.
func NewLayout(decls []lang.ArrayDecl, origin int64) *Layout {
	l := &Layout{Words: origin}
	for _, d := range decls {
		info := ArrayInfo{ArrayDecl: d, Base: l.Words}
		l.Arrays = append(l.Arrays, info)
		l.Words += info.Size()
	}
	return l
}

// Array looks up an array by name.
func (l *Layout) Array(name string) (ArrayInfo, bool) {
	for _, a := range l.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return ArrayInfo{}, false
}

// Addr returns the address of an element given its indices (row-major).
// It is used by tests and examples to initialize and inspect memory.
func (l *Layout) Addr(name string, indices ...int64) (int64, error) {
	a, ok := l.Array(name)
	if !ok {
		return 0, fmt.Errorf("compiler: unknown array %q", name)
	}
	if len(indices) != len(a.Dims) {
		return 0, fmt.Errorf("compiler: array %q rank %d, got %d indices", name, len(a.Dims), len(indices))
	}
	addr := int64(0)
	for d, idx := range indices {
		if idx < 0 || idx >= a.Dims[d] {
			return 0, fmt.Errorf("compiler: index %d out of range [0,%d) in dim %d of %q", idx, a.Dims[d], d, name)
		}
		addr = addr*a.Dims[d] + idx
	}
	return a.Base + addr, nil
}

// RegionMode selects how the non-barrier region is constructed.
type RegionMode int

const (
	// RegionSpan is Figure 4(a): the non-barrier region runs from the
	// first marked instruction to the last, with no reordering.
	RegionSpan RegionMode = iota
	// RegionReorder is Figure 4(b): the three-phase DAG scheduling moves
	// unmarked instructions out of the non-barrier region.
	RegionReorder
	// RegionPoint is the conventional-barrier baseline: the entire loop
	// body is non-barrier and the barrier region is a single null
	// operation, so synchronization happens at a point.
	RegionPoint
)

// String implements fmt.Stringer.
func (m RegionMode) String() string {
	switch m {
	case RegionSpan:
		return "span"
	case RegionReorder:
		return "reorder"
	case RegionPoint:
		return "point"
	}
	return fmt.Sprintf("RegionMode(%d)", int(m))
}

// Options configures compilation.
type Options struct {
	// Procs is the number of processors/streams to generate code for.
	Procs int
	// Mode selects region construction (default RegionSpan).
	Mode RegionMode
	// Params binds named compile-time constants referenced by the
	// program (loop bounds etc.).
	Params map[string]int64
}

// tag is the barrier tag the generated code loads.
const tag core.Tag = 1

// origin is the first shared-memory address used for arrays; low words
// are left for diagnostics.
const origin = 64

func (o *Options) normalize() error {
	if o.Procs <= 0 {
		return fmt.Errorf("compiler: Procs must be positive, got %d", o.Procs)
	}
	if o.Procs > 64 {
		return fmt.Errorf("compiler: Procs must be <= 64, got %d", o.Procs)
	}
	return nil
}

// Task is the compiled output for one processor.
type Task struct {
	Proc    int
	TAC     *ir.Program
	Machine *isaProgram
	Stats   ir.RegionStats
}

// Compiled is the result of compiling a program.
type Compiled struct {
	Layout *Layout
	Tasks  []*Task
	Marked []string // marked access signatures (diagnostics)
}

// Compile compiles a program for opt.Procs processors.
//
// The program must have the paper's canonical shape: a single outermost
// sequential loop (the loop whose iterations barrier-synchronize),
// containing statements each of which is a parallel loop nest. Parallel
// iterations are distributed across processors: if the parallel iteration
// space exactly matches Procs each processor receives one iteration
// (Figure 3(b)); otherwise the outermost parallel loop is block-
// distributed (Figure 5's tasks).
func Compile(prog *lang.Program, opt Options) (*Compiled, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if len(prog.Body) != 1 {
		return nil, fmt.Errorf("compiler: program must have exactly one top-level statement, got %d", len(prog.Body))
	}
	outer, ok := prog.Body[0].(*lang.ForStmt)
	if !ok || outer.Par {
		return nil, fmt.Errorf("compiler: top-level statement must be a sequential for loop")
	}

	layout := NewLayout(prog.Arrays, origin)
	an := analyze(prog)

	c := &Compiled{Layout: layout, Marked: an.MarkedSignatures()}
	for p := 0; p < opt.Procs; p++ {
		task, err := compileTask(prog, outer, layout, an, opt, p)
		if err != nil {
			return nil, fmt.Errorf("compiler: processor %d: %w", p, err)
		}
		c.Tasks = append(c.Tasks, task)
	}
	return c, nil
}

// constEval evaluates an expression that must be a compile-time constant
// under params.
func constEval(e lang.Expr, params map[string]int64) (int64, error) {
	lo := newLowerer(nil, params, nil)
	v, ok := lo.constOf(e)
	if !ok {
		return 0, fmt.Errorf("expression %v is not a compile-time constant", e)
	}
	if len(lo.errs) > 0 {
		return 0, lo.errs[0]
	}
	return v, nil
}

// tripValues enumerates the values of a loop variable with constant
// bounds.
func tripValues(f *lang.ForStmt, params map[string]int64) ([]int64, error) {
	from, err := constEval(f.From, params)
	if err != nil {
		return nil, err
	}
	to, err := constEval(f.To, params)
	if err != nil {
		return nil, err
	}
	var out []int64
	for v := from; holds(v, f.Rel, to); v += f.Step {
		out = append(out, v)
		if len(out) > 1<<20 {
			return nil, fmt.Errorf("loop over %q has more than 2^20 iterations", f.Var)
		}
	}
	return out, nil
}

func holds(a int64, rel ir.Rel, b int64) bool {
	switch rel {
	case ir.LT:
		return a < b
	case ir.LE:
		return a <= b
	case ir.GT:
		return a > b
	case ir.GE:
		return a >= b
	case ir.EQ:
		return a == b
	case ir.NE:
		return a != b
	}
	return false
}

// parNest returns the consecutive par-loop chain starting at s, plus the
// innermost body.
func parNest(s lang.Stmt) ([]*lang.ForStmt, []lang.Stmt) {
	var chain []*lang.ForStmt
	body := []lang.Stmt{s}
	for len(body) == 1 {
		f, ok := body[0].(*lang.ForStmt)
		if !ok || !f.Par {
			break
		}
		chain = append(chain, f)
		body = f.Body
	}
	return chain, body
}

// distribute rewrites one top-level statement of the sequential loop body
// into the per-processor form: either the statement with par variables
// bound to constants (point distribution) or a sequential loop over the
// processor's block of the outermost par variable.
//
// It returns the statements processor p executes and the extra parameter
// bindings for the lowerer.
func distribute(s lang.Stmt, params map[string]int64, procs, p int) ([]lang.Stmt, map[string]int64, error) {
	chain, body := parNest(s)
	if len(chain) == 0 {
		return nil, nil, fmt.Errorf("statement %T inside the sequential loop is not parallel; it would be executed redundantly by every processor", s)
	}
	// Enumerate the full parallel iteration space.
	values := make([][]int64, len(chain))
	total := 1
	for i, f := range chain {
		vs, err := tripValues(f, params)
		if err != nil {
			return nil, nil, err
		}
		if len(vs) == 0 {
			return nil, nil, fmt.Errorf("parallel loop over %q has zero iterations", f.Var)
		}
		values[i] = vs
		total *= len(vs)
	}

	if total == procs {
		// Point distribution: processor p executes exactly one coordinate
		// tuple (Figure 3(b): "Processor P_l,m").
		binds := make(map[string]int64, len(chain))
		rem := p
		for i := len(chain) - 1; i >= 0; i-- {
			vs := values[i]
			binds[chain[i].Var] = vs[rem%len(vs)]
			rem /= len(vs)
		}
		return body, binds, nil
	}

	// Block distribution of the outermost par loop (Figure 5: iterations
	// p*⌈M/S⌉+1 ... min(M, (p+1)*⌈M/S⌉)); any deeper par loops run
	// sequentially within the owning processor.
	outerVals := values[0]
	chunk := (len(outerVals) + procs - 1) / procs
	lo := p * chunk
	hi := lo + chunk
	if hi > len(outerVals) {
		hi = len(outerVals)
	}
	if lo >= hi {
		return nil, map[string]int64{}, nil // this processor owns no iterations
	}
	f := chain[0]
	inner := seqCopy(chain[1:], body)
	rewritten := &lang.ForStmt{
		Var:  f.Var,
		From: lang.NumExpr{Val: outerVals[lo]},
		Rel:  ir.LE,
		To:   lang.NumExpr{Val: outerVals[hi-1]},
		Step: f.Step,
		Body: inner,
	}
	return []lang.Stmt{rewritten}, map[string]int64{}, nil
}

// seqCopy re-wraps the remaining par chain as sequential loops around the
// body.
func seqCopy(chain []*lang.ForStmt, body []lang.Stmt) []lang.Stmt {
	if len(chain) == 0 {
		return body
	}
	f := chain[0]
	return []lang.Stmt{&lang.ForStmt{
		Var: f.Var, From: f.From, Rel: f.Rel, To: f.To, Step: f.Step,
		Body: seqCopy(chain[1:], body),
	}}
}
