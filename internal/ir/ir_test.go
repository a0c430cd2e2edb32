package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOperandStrings(t *testing.T) {
	cases := map[string]Operand{
		"T7": Temp(7),
		"j":  Var("j"),
		"42": Const(42),
		"-3": Const(-3),
		"P":  Base("P"),
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", op, got, want)
		}
	}
}

func TestInstrStringsPaperStyle(t *testing.T) {
	cases := map[string]Instr{
		"T1 = j + 1":         {Op: Add, Dst: Temp(1), A: Var("j"), B: Const(1)},
		"T3 = T2 + P":        {Op: Add, Dst: Temp(3), A: Temp(2), B: Base("P")},
		"T11 = [T5]":         {Op: Load, Dst: Temp(11), A: Temp(5)},
		"[T28] = T24":        {Op: Store, Dst: Temp(28), B: Temp(24)},
		"k = k + 1":          {Op: Add, Dst: Var("k"), A: Var("k"), B: Const(1)},
		"if k <= 20 goto L1": {Op: IfGoto, A: Var("k"), B: Const(20), Rel: LE, Target: "L1"},
		"goto L1":            {Op: Goto, Target: "L1"},
		"L1:":                {Op: Label, Target: "L1"},
		"i = 1":              {Op: Assign, Dst: Var("i"), A: Const(1)},
		"T2 = 12 * i":        {Op: Mul, Dst: Temp(2), A: Const(12), B: Var("i")},
		"T24 = T23 / 4":      {Op: Div, Dst: Temp(24), A: Temp(23), B: Const(4)},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	withComment := Instr{Op: Assign, Dst: Var("i"), A: Const(1), Comment: "init"}
	if got := withComment.String(); !strings.Contains(got, "/* init */") {
		t.Errorf("comment missing: %q", got)
	}
}

func TestDefsUses(t *testing.T) {
	in := Instr{Op: Add, Dst: Temp(3), A: Temp(1), B: Var("x")}
	d, ok := in.Defs()
	if !ok || d != Temp(3) {
		t.Errorf("Defs = %v, %v", d, ok)
	}
	uses := in.Uses()
	if len(uses) != 2 || uses[0] != Temp(1) || uses[1] != Var("x") {
		t.Errorf("Uses = %v", uses)
	}
	// Stores define memory, not an operand; they use address and value.
	st := Instr{Op: Store, Dst: Temp(5), B: Temp(6)}
	if _, ok := st.Defs(); ok {
		t.Error("store should not def an operand")
	}
	if uses := st.Uses(); len(uses) != 2 {
		t.Errorf("store uses = %v, want addr+value", uses)
	}
	// Constants are not uses.
	c := Instr{Op: Add, Dst: Temp(0), A: Const(1), B: Const(2)}
	if uses := c.Uses(); len(uses) != 0 {
		t.Errorf("const uses = %v, want none", uses)
	}
	// Control classification.
	for _, in := range []Instr{{Op: Goto}, {Op: IfGoto}, {Op: Label}} {
		if !in.IsControl() {
			t.Errorf("%v should be control", in.Op)
		}
	}
	if (Instr{Op: Load}).IsControl() {
		t.Error("load misclassified as control")
	}
}

func TestRelNegate(t *testing.T) {
	pairs := map[Rel]Rel{LT: GE, LE: GT, GT: LE, GE: LT, EQ: NE, NE: EQ}
	for r, want := range pairs {
		if got := r.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", r, got, want)
		}
		if got := r.Negate().Negate(); got != r {
			t.Errorf("double negate of %v = %v", r, got)
		}
	}
}

func TestBlockValidate(t *testing.T) {
	good := Block{
		{Op: Assign, Dst: Var("x"), A: Const(1)},
		{Op: IfGoto, A: Var("x"), B: Const(2), Rel: LT, Target: "L"},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("trailing control rejected: %v", err)
	}
	bad := Block{
		{Op: Goto, Target: "L"},
		{Op: Assign, Dst: Var("x"), A: Const(1)},
	}
	if err := bad.Validate(); err == nil {
		t.Error("interior control accepted")
	}
}

func TestProgramStatsAndRendering(t *testing.T) {
	p := &Program{Name: "demo", Code: []Instr{
		{Op: Assign, Dst: Var("k"), A: Const(1), Barrier: true},
		{Op: Label, Target: "L1", Barrier: true},
		{Op: Load, Dst: Temp(0), A: Temp(9), Marked: true},
		{Op: Store, Dst: Temp(9), B: Temp(0), Marked: true},
		{Op: Add, Dst: Var("k"), A: Var("k"), B: Const(1), Barrier: true},
		{Op: IfGoto, A: Var("k"), B: Const(10), Rel: LE, Target: "L1", Barrier: true},
	}}
	st := p.Stats()
	if st.Total != 5 { // label excluded
		t.Errorf("total = %d, want 5", st.Total)
	}
	if st.Barrier != 3 || st.NonBarrier != 2 || st.Marked != 2 {
		t.Errorf("stats = %+v", st)
	}
	out := p.String()
	for _, want := range []string{"Barrier:", "Non-barrier:", "L1:", "* "} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	vars := p.Vars()
	if len(vars) != 1 || vars[0] != "k" {
		t.Errorf("vars = %v", vars)
	}
}

// TestUsesNeverContainConstants is a property over arbitrary instructions.
func TestUsesNeverContainConstants(t *testing.T) {
	f := func(op uint8, dk, ak, bk uint8, id int16) bool {
		mk := func(k uint8) Operand {
			switch k % 4 {
			case 0:
				return Temp(int(id) & 0xFF)
			case 1:
				return Var("v")
			case 2:
				return Const(int64(id))
			default:
				return Base("B")
			}
		}
		in := Instr{Op: Op(op % 12), Dst: mk(dk), A: mk(ak), B: mk(bk)}
		for _, u := range in.Uses() {
			if u.Kind == KindConst || u.Kind == KindBase || u.Kind == KindNone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
