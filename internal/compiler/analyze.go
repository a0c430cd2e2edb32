package compiler

import (
	"fmt"
	"sort"

	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/lang"
)

// This file implements the dependence analysis that identifies *marked*
// instructions (Section 4): "those instructions which either access a
// value computed by another processor or compute a value that will be
// accessed by another processor". An array access is marked when it
// participates in a data dependence that can cross processors under the
// chosen work distribution; barrier synchronization exists to order
// exactly those accesses.

// varKind classifies a loop variable in the analysis context.
type varKind int

const (
	kindFree varKind = iota // not a loop variable (parameter, unknown)
	kindSeq                 // sequential loop variable (outer barrier loop or inner seq)
	kindPar                 // parallel loop variable: identifies the owning processor
)

// subscript is one dimension of an array access in canonical affine form
// var+offset; Opaque subscripts disable precise reasoning.
type subscript struct {
	Var    string // "" for pure constants
	Offset int64
	Opaque bool
}

func (s subscript) String() string {
	if s.Opaque {
		return "?"
	}
	if s.Var == "" {
		return fmt.Sprint(s.Offset)
	}
	if s.Offset == 0 {
		return s.Var
	}
	if s.Offset > 0 {
		return fmt.Sprintf("%s+%d", s.Var, s.Offset)
	}
	return fmt.Sprintf("%s%d", s.Var, s.Offset)
}

// access is one array read or write site, identified by its signature.
type access struct {
	Array string
	subs  []subscript
	Write bool
}

// signature is the canonical identity of an access pattern; lowering uses
// it to tag the Load/Store instructions it emits.
func (a access) signature() string {
	s := a.Array
	for _, sub := range a.subs {
		s += "[" + sub.String() + "]"
	}
	if a.Write {
		return s + ":W"
	}
	return s + ":R"
}

// analysis is the result of dependence analysis over a program.
type analysis struct {
	accesses []access
	varKinds map[string]varKind
	parVars  []string        // all par-loop variables, in nesting order
	marked   map[string]bool // signatures of marked accesses
}

// affineOf canonicalizes an index expression to var+offset if possible.
func affineOf(e lang.Expr) subscript {
	switch x := e.(type) {
	case lang.NumExpr:
		return subscript{Offset: x.Val}
	case lang.VarExpr:
		return subscript{Var: x.Name}
	case lang.BinExpr:
		l := affineOf(x.L)
		r := affineOf(x.R)
		if l.Opaque || r.Opaque {
			return subscript{Opaque: true}
		}
		switch x.Op {
		case ir.Add:
			switch {
			case l.Var != "" && r.Var == "":
				return subscript{Var: l.Var, Offset: l.Offset + r.Offset}
			case l.Var == "" && r.Var != "":
				return subscript{Var: r.Var, Offset: l.Offset + r.Offset}
			case l.Var == "" && r.Var == "":
				return subscript{Offset: l.Offset + r.Offset}
			}
		case ir.Sub:
			if r.Var == "" {
				if l.Var != "" {
					return subscript{Var: l.Var, Offset: l.Offset - r.Offset}
				}
				return subscript{Offset: l.Offset - r.Offset}
			}
		case ir.Mul:
			if l.Var == "" && r.Var == "" {
				return subscript{Offset: l.Offset * r.Offset}
			}
		}
	}
	return subscript{Opaque: true}
}

// analyze walks the program, classifies loop variables, collects array
// accesses and computes the marked set.
func analyze(prog *lang.Program) *analysis {
	a := &analysis{
		varKinds: make(map[string]varKind),
		marked:   make(map[string]bool),
	}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case lang.BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case lang.IndexExpr:
			acc := access{Array: x.Name}
			for _, idx := range x.Indices {
				acc.subs = append(acc.subs, affineOf(idx))
				walkExpr(idx)
			}
			a.accesses = append(a.accesses, acc)
		}
	}
	var walkStmts func(ss []lang.Stmt)
	walkStmts = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *lang.AssignStmt:
				walkExpr(x.RHS)
				if len(x.LHS.Indices) > 0 {
					acc := access{Array: x.LHS.Name, Write: true}
					for _, idx := range x.LHS.Indices {
						acc.subs = append(acc.subs, affineOf(idx))
						walkExpr(idx)
					}
					a.accesses = append(a.accesses, acc)
				}
			case *lang.IfStmt:
				walkExpr(x.Cond.L)
				walkExpr(x.Cond.R)
				walkStmts(x.Then)
				walkStmts(x.Else)
			case *lang.ForStmt:
				if x.Par {
					a.varKinds[x.Var] = kindPar
					a.parVars = append(a.parVars, x.Var)
				} else if _, seen := a.varKinds[x.Var]; !seen {
					a.varKinds[x.Var] = kindSeq
				}
				walkExpr(x.From)
				walkExpr(x.To)
				walkStmts(x.Body)
			}
		}
	}
	walkStmts(prog.Body)
	a.computeMarked()
	return a
}

// crossProcessor decides whether a dependence between write w and access r
// (same array) can connect two *different* processors. Each processor owns
// a distinct combination of par-variable values, so the question is
// whether the subscript systems admit a solution in which some par
// variable differs between the two accesses.
func (a *analysis) crossProcessor(w, r access) bool {
	if len(w.subs) != len(r.subs) {
		return true // malformed; be conservative
	}
	constrained := make(map[string]int64) // par var -> forced displacement
	conservative := false
	for d := range w.subs {
		ws, rs := w.subs[d], r.subs[d]
		if ws.Opaque || rs.Opaque {
			conservative = true
			continue
		}
		switch {
		case ws.Var == "" && rs.Var == "":
			if ws.Offset != rs.Offset {
				return false // can never alias
			}
		case ws.Var == rs.Var:
			switch a.varKinds[ws.Var] {
			case kindPar:
				delta := ws.Offset - rs.Offset
				if prev, ok := constrained[ws.Var]; ok && prev != delta {
					return false // inconsistent requirements: no alias
				}
				constrained[ws.Var] = delta
			default:
				// Sequential or free variable: a suitable iteration (or
				// value) always exists; no processor constraint.
			}
		default:
			// Mixed variables or variable vs. constant: if a par variable
			// is involved its value is pinned rather than tied to the
			// other processor's, which permits differing processors.
			if a.varKinds[ws.Var] == kindPar || a.varKinds[rs.Var] == kindPar {
				conservative = true
			}
			// Otherwise sequential/free: solvable, unconstrained.
		}
	}
	if conservative {
		return true
	}
	// Any nonzero displacement in a par dimension crosses an ownership
	// boundary for some iteration pair.
	for _, delta := range constrained {
		if delta != 0 {
			return true
		}
	}
	// A par variable absent from the constraints means two processors
	// differing in that variable can both touch the same element.
	for _, pv := range a.parVars {
		if _, ok := constrained[pv]; !ok {
			return true
		}
	}
	return false
}

// computeMarked marks every access that participates in a cross-processor
// dependence with some write.
func (a *analysis) computeMarked() {
	for _, w := range a.accesses {
		if !w.Write {
			continue
		}
		for _, r := range a.accesses {
			if r.Array != w.Array {
				continue
			}
			if !r.Write && !w.Write {
				continue // read-read pairs carry no dependence
			}
			if a.crossProcessor(w, r) {
				a.marked[w.signature()] = true
				a.marked[r.signature()] = true
			}
		}
	}
}

// Marked reports whether an access signature is marked.
func (a *analysis) Marked(sig string) bool { return a.marked[sig] }

// MarkedSignatures returns the sorted marked set (for diagnostics).
func (a *analysis) MarkedSignatures() []string {
	out := make([]string, 0, len(a.marked))
	for s := range a.marked {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
