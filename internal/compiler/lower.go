package compiler

import (
	"fmt"

	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/lang"
)

// lowerer translates AST statements to three-address code in the style of
// Figure 4: explicit temporaries for every intermediate value, explicit
// address arithmetic for array references, bracketed loads and stores.
type lowerer struct {
	layout  *Layout
	params  map[string]int64 // named compile-time constants (incl. bound par vars)
	marked  func(sig string) bool
	nextT   int
	nextLbl int
	code    []ir.Instr
	errs    []error
}

func newLowerer(layout *Layout, params map[string]int64, marked func(string) bool) *lowerer {
	p := make(map[string]int64, len(params))
	for k, v := range params {
		p[k] = v
	}
	if marked == nil {
		marked = func(string) bool { return false }
	}
	return &lowerer{layout: layout, params: p, marked: marked}
}

// accessSig computes the canonical signature of an array access from its
// *source* index expressions (before parameter binding), so it matches the
// signatures produced by dependence analysis.
func accessSig(name string, indices []lang.Expr, write bool) string {
	acc := access{Array: name, Write: write}
	for _, idx := range indices {
		acc.subs = append(acc.subs, affineOf(idx))
	}
	return acc.signature()
}

func (lo *lowerer) errf(format string, args ...any) {
	lo.errs = append(lo.errs, fmt.Errorf("compiler: "+format, args...))
}

func (lo *lowerer) temp() ir.Operand {
	t := ir.Temp(lo.nextT)
	lo.nextT++
	return t
}

func (lo *lowerer) label(prefix string) string {
	lo.nextLbl++
	return fmt.Sprintf("%s%d", prefix, lo.nextLbl)
}

func (lo *lowerer) emit(in ir.Instr) {
	lo.code = append(lo.code, in)
}

// operandOf lowers an expression to an operand, emitting TAC as needed.
// Constants (literals, bound parameters, foldable arithmetic) become
// KindConst operands directly.
func (lo *lowerer) operandOf(e lang.Expr) ir.Operand {
	if v, ok := lo.constOf(e); ok {
		return ir.Const(v)
	}
	switch x := e.(type) {
	case lang.VarExpr:
		return ir.Var(x.Name)
	case lang.BinExpr:
		a := lo.operandOf(x.L)
		b := lo.operandOf(x.R)
		t := lo.temp()
		lo.emit(ir.Instr{Op: x.Op, Dst: t, A: a, B: b})
		return t
	case lang.IndexExpr:
		addr, comment := lo.address(x.Name, x.Indices)
		t := lo.temp()
		lo.emit(ir.Instr{
			Op: ir.Load, Dst: t, A: addr, Comment: comment,
			Marked: lo.marked(accessSig(x.Name, x.Indices, false)),
		})
		return t
	case lang.NumExpr:
		return ir.Const(x.Val)
	}
	lo.errf("cannot lower expression %v", e)
	return ir.Const(0)
}

// constOf attempts compile-time evaluation.
func (lo *lowerer) constOf(e lang.Expr) (int64, bool) {
	switch x := e.(type) {
	case lang.NumExpr:
		return x.Val, true
	case lang.VarExpr:
		v, ok := lo.params[x.Name]
		return v, ok
	case lang.BinExpr:
		l, ok1 := lo.constOf(x.L)
		r, ok2 := lo.constOf(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case ir.Add:
			return l + r, true
		case ir.Sub:
			return l - r, true
		case ir.Mul:
			return l * r, true
		case ir.Div:
			if r == 0 {
				lo.errf("division by zero in constant expression")
				return 0, false
			}
			return l / r, true
		case ir.Mod:
			if r == 0 {
				lo.errf("modulo by zero in constant expression")
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// address emits the Figure 4-style address computation for an array
// reference and returns the operand holding the element address. Layout is
// row-major, one word per element:
//
//	T1 = j + 1            (index expression)
//	T2 = C * i            (row scaling)
//	T3 = T2 + P           (base)
//	T5 = T3 + T1          (element address)
func (lo *lowerer) address(name string, indices []lang.Expr) (ir.Operand, string) {
	arr, ok := lo.layout.Array(name)
	if !ok {
		lo.errf("reference to unknown array %q", name)
		return ir.Const(0), ""
	}
	if len(indices) != len(arr.Dims) {
		lo.errf("array %q rank mismatch: %d indices for %d dims", name, len(indices), len(arr.Dims))
		return ir.Const(0), ""
	}
	comment := fmt.Sprintf("address of %s%s", name, renderIndices(indices))

	// Horner evaluation of the linearized subscript.
	var linear ir.Operand
	for d, idxExpr := range indices {
		idx := lo.operandOf(idxExpr)
		if d == 0 {
			linear = idx
			continue
		}
		stride := arr.Dims[d]
		// linear = linear*stride + idx, with constant folding.
		if linear.Kind == ir.KindConst && idx.Kind == ir.KindConst {
			linear = ir.Const(linear.Val*stride + idx.Val)
			continue
		}
		t1 := lo.temp()
		lo.emit(ir.Instr{Op: ir.Mul, Dst: t1, A: linear, B: ir.Const(stride)})
		t2 := lo.temp()
		lo.emit(ir.Instr{Op: ir.Add, Dst: t2, A: t1, B: idx})
		linear = t2
	}
	// addr = linear + base.
	if linear.Kind == ir.KindConst {
		// Fold completely: base is a link-time constant too, but keep the
		// Base symbol so the layout stays visible in the TAC.
		t := lo.temp()
		lo.emit(ir.Instr{Op: ir.Add, Dst: t, A: ir.Const(linear.Val), B: ir.Base(name), Comment: comment})
		return t, ""
	}
	t := lo.temp()
	lo.emit(ir.Instr{Op: ir.Add, Dst: t, A: linear, B: ir.Base(name), Comment: comment})
	return t, ""
}

func renderIndices(indices []lang.Expr) string {
	s := ""
	for _, e := range indices {
		s += "[" + e.String() + "]"
	}
	return s
}

// lowerStmt lowers one statement.
func (lo *lowerer) lowerStmt(s lang.Stmt) {
	switch x := s.(type) {
	case *lang.AssignStmt:
		lo.lowerAssign(x)
	case *lang.IfStmt:
		lo.lowerIf(x)
	case *lang.ForStmt:
		lo.lowerFor(x)
	default:
		lo.errf("cannot lower statement %T", s)
	}
}

func (lo *lowerer) lowerAssign(s *lang.AssignStmt) {
	if len(s.LHS.Indices) == 0 {
		val := lo.operandOf(s.RHS)
		lo.emit(ir.Instr{Op: ir.Assign, Dst: ir.Var(s.LHS.Name), A: val})
		return
	}
	// Array store: the paper computes the value first where profitable,
	// but the address computation ordering is the reorderer's business;
	// lower value then address, matching Figure 4(a).
	val := lo.operandOf(s.RHS)
	addr, comment := lo.address(s.LHS.Name, s.LHS.Indices)
	lo.emit(ir.Instr{
		Op: ir.Store, Dst: addr, B: val, Comment: comment,
		Marked: lo.marked(accessSig(s.LHS.Name, s.LHS.Indices, true)),
	})
}

func (lo *lowerer) lowerIf(s *lang.IfStmt) {
	elseLbl := lo.label("Else")
	endLbl := lo.label("Endif")
	l := lo.operandOf(s.Cond.L)
	r := lo.operandOf(s.Cond.R)
	target := endLbl
	if len(s.Else) > 0 {
		target = elseLbl
	}
	lo.emit(ir.Instr{Op: ir.IfGoto, A: l, B: r, Rel: s.Cond.Rel.Negate(), Target: target})
	for _, st := range s.Then {
		lo.lowerStmt(st)
	}
	if len(s.Else) > 0 {
		lo.emit(ir.Instr{Op: ir.Goto, Target: endLbl})
		lo.emit(ir.Instr{Op: ir.Label, Target: elseLbl})
		for _, st := range s.Else {
			lo.lowerStmt(st)
		}
	}
	lo.emit(ir.Instr{Op: ir.Label, Target: endLbl})
}

func (lo *lowerer) lowerFor(s *lang.ForStmt) {
	// Inner loops are always lowered sequentially here: par loops have
	// been rewritten by task generation before lowering.
	head := lo.label("L")
	v := ir.Var(s.Var)
	from := lo.operandOf(s.From)
	lo.emit(ir.Instr{Op: ir.Assign, Dst: v, A: from})
	lo.emit(ir.Instr{Op: ir.Label, Target: head})
	// Bound check at the top so zero-trip loops work.
	to := lo.operandOf(s.To)
	exit := lo.label("Done")
	lo.emit(ir.Instr{Op: ir.IfGoto, A: v, B: to, Rel: s.Rel.Negate(), Target: exit})
	for _, st := range s.Body {
		lo.lowerStmt(st)
	}
	lo.emit(ir.Instr{Op: ir.Add, Dst: v, A: v, B: ir.Const(s.Step)})
	lo.emit(ir.Instr{Op: ir.Goto, Target: head})
	lo.emit(ir.Instr{Op: ir.Label, Target: exit})
}

// finish returns the accumulated code or the first error.
func (lo *lowerer) finish() ([]ir.Instr, error) {
	for _, err := range lo.errs {
		return nil, err
	}
	return lo.code, nil
}
