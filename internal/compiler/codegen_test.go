package compiler

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
)

// codegenHarness compiles a hand-built TAC program and runs it on one
// simulated processor.
func codegenHarness(t *testing.T, code []ir.Instr, layout *Layout) *machine.Machine {
	t.Helper()
	tac := &ir.Program{Name: "cg", Code: code}
	prog, err := codegen(tac, layout, Options{Procs: 1}, 0)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	words := 256
	if layout != nil {
		words = int(layout.Words) + 64
	}
	m := machine.New(machine.Config{Procs: 1, Mem: mem.Config{
		Words: words, Procs: 1, HitLatency: 1, MissLatency: 1, Modules: 1,
	}})
	if err := m.Load(0, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, prog.Disassemble())
	}
	return m
}

func TestCodegenArithmeticAndStores(t *testing.T) {
	layout := NewLayout([]lang.ArrayDecl{{Name: "A", Dims: []int64{8}}}, 64)
	T := ir.Temp
	// A[3] = (5*4 + 2 - 6/3) % 7  ->  (20+2-2)%7 = 20%7 = 6
	code := []ir.Instr{
		{Op: ir.Mul, Dst: T(0), A: ir.Const(5), B: ir.Const(4)},
		{Op: ir.Add, Dst: T(1), A: T(0), B: ir.Const(2)},
		{Op: ir.Div, Dst: T(2), A: ir.Const(6), B: ir.Const(3)},
		{Op: ir.Sub, Dst: T(3), A: T(1), B: T(2)},
		{Op: ir.Mod, Dst: T(4), A: T(3), B: ir.Const(7)},
		{Op: ir.Add, Dst: T(5), A: ir.Const(3), B: ir.Base("A")},
		{Op: ir.Store, Dst: T(5), B: T(4)},
	}
	m := codegenHarness(t, code, layout)
	addr, err := layout.Addr("A", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustPeek(m.Mem(), addr); got != 6 {
		t.Errorf("A[3] = %d, want 6", got)
	}
}

func TestCodegenLoadStoreRoundTrip(t *testing.T) {
	layout := NewLayout([]lang.ArrayDecl{{Name: "A", Dims: []int64{4}}}, 64)
	T := ir.Temp
	code := []ir.Instr{
		{Op: ir.Add, Dst: T(0), A: ir.Const(0), B: ir.Base("A")},
		{Op: ir.Store, Dst: T(0), B: ir.Const(41)},
		{Op: ir.Load, Dst: T(1), A: T(0)},
		{Op: ir.Add, Dst: T(2), A: T(1), B: ir.Const(1)},
		{Op: ir.Add, Dst: T(3), A: ir.Const(1), B: ir.Base("A")},
		{Op: ir.Store, Dst: T(3), B: T(2)},
	}
	m := codegenHarness(t, code, layout)
	a1, _ := layout.Addr("A", 1)
	if got := mustPeek(m.Mem(), a1); got != 42 {
		t.Errorf("A[1] = %d, want 42", got)
	}
}

func TestCodegenControlFlow(t *testing.T) {
	layout := NewLayout([]lang.ArrayDecl{{Name: "A", Dims: []int64{4}}}, 64)
	// sum = 0; for v = 1..5 { sum += v }; A[0] = sum  -> 15
	code := []ir.Instr{
		{Op: ir.Assign, Dst: ir.Var("sum"), A: ir.Const(0)},
		{Op: ir.Assign, Dst: ir.Var("v"), A: ir.Const(1)},
		{Op: ir.Label, Target: "top"},
		{Op: ir.IfGoto, A: ir.Var("v"), B: ir.Const(5), Rel: ir.GT, Target: "done"},
		{Op: ir.Add, Dst: ir.Var("sum"), A: ir.Var("sum"), B: ir.Var("v")},
		{Op: ir.Add, Dst: ir.Var("v"), A: ir.Var("v"), B: ir.Const(1)},
		{Op: ir.Goto, Target: "top"},
		{Op: ir.Label, Target: "done"},
		{Op: ir.Add, Dst: ir.Temp(0), A: ir.Const(0), B: ir.Base("A")},
		{Op: ir.Store, Dst: ir.Temp(0), B: ir.Var("sum")},
	}
	m := codegenHarness(t, code, layout)
	a0, _ := layout.Addr("A", 0)
	if got := mustPeek(m.Mem(), a0); got != 15 {
		t.Errorf("A[0] = %d, want 15", got)
	}
}

func TestCodegenBarrierBitsCarriedThrough(t *testing.T) {
	code := []ir.Instr{
		{Op: ir.Assign, Dst: ir.Var("x"), A: ir.Const(1)},                             // non-barrier
		{Op: ir.Add, Dst: ir.Var("x"), A: ir.Var("x"), B: ir.Const(1), Barrier: true}, // barrier
		{Op: ir.Nop, Barrier: true},
	}
	tac := &ir.Program{Name: "bits", Code: code}
	prog, err := codegen(tac, nil, Options{Procs: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Prologue BARRIER instruction: non-barrier, the compiler's tag, mask = {0}.
	if prog.Code[0].Op != isa.BARRIER || prog.Code[0].Imm != int64(tag) {
		t.Errorf("prologue = %v", prog.Code[0])
	}
	if core.Mask(prog.Code[0].Imm2) != core.MaskOf(0) {
		t.Errorf("mask = %#x, want processor 0 only", prog.Code[0].Imm2)
	}
	// Find the generated ADD: it must carry the barrier bit.
	seenBarrierAdd := false
	for _, in := range prog.Code {
		if in.Op == isa.ADDI && in.Barrier {
			seenBarrierAdd = true
		}
	}
	if !seenBarrierAdd {
		t.Errorf("barrier bit lost in codegen:\n%s", prog.Disassemble())
	}
	// Final instruction is a non-barrier HALT.
	last := prog.Code[prog.Len()-1]
	if last.Op != isa.HALT || last.Barrier {
		t.Errorf("epilogue = %v", last)
	}
}

func TestCodegenRegisterRecycling(t *testing.T) {
	// 200 short-lived temps must fit in the register file via recycling.
	var code []ir.Instr
	code = append(code, ir.Instr{Op: ir.Assign, Dst: ir.Var("acc"), A: ir.Const(0)})
	for i := 0; i < 200; i++ {
		code = append(code,
			ir.Instr{Op: ir.Add, Dst: ir.Temp(i), A: ir.Var("acc"), B: ir.Const(1)},
			ir.Instr{Op: ir.Assign, Dst: ir.Var("acc"), A: ir.Temp(i)},
		)
	}
	layout := NewLayout([]lang.ArrayDecl{{Name: "A", Dims: []int64{4}}}, 64)
	code = append(code,
		ir.Instr{Op: ir.Add, Dst: ir.Temp(999), A: ir.Const(0), B: ir.Base("A")},
		ir.Instr{Op: ir.Store, Dst: ir.Temp(999), B: ir.Var("acc")},
	)
	m := codegenHarness(t, code, layout)
	a0, _ := layout.Addr("A", 0)
	if got := mustPeek(m.Mem(), a0); got != 200 {
		t.Errorf("acc = %d, want 200", got)
	}
}

func TestCodegenRegisterPressureOverflow(t *testing.T) {
	// Temps all simultaneously live must exhaust the register file and
	// produce a clean error (no spilling is implemented, by design).
	var code []ir.Instr
	n := int(isa.NumRegs) + 8
	for i := 0; i < n; i++ {
		code = append(code, ir.Instr{Op: ir.Assign, Dst: ir.Temp(i), A: ir.Const(int64(i))})
	}
	// One instruction using all of them pairwise keeps them live.
	for i := 1; i < n; i++ {
		code = append(code, ir.Instr{Op: ir.Add, Dst: ir.Temp(n + i), A: ir.Temp(i - 1), B: ir.Temp(n - i)})
	}
	tac := &ir.Program{Name: "pressure", Code: code}
	if _, err := codegen(tac, nil, Options{Procs: 1}, 0); err == nil {
		t.Skip("register pressure did not overflow (recycling handled it)")
	}
}

func TestCodegenErrors(t *testing.T) {
	cases := map[string][]ir.Instr{
		"undefined temp use": {{Op: ir.Add, Dst: ir.Temp(0), A: ir.Temp(5), B: ir.Const(1)}},
		"unknown base":       {{Op: ir.Add, Dst: ir.Temp(0), A: ir.Const(1), B: ir.Base("NOPE")}},
		"store to const":     {{Op: ir.Store, Dst: ir.Operand{}, B: ir.Const(1)}},
	}
	for name, code := range cases {
		tac := &ir.Program{Name: name, Code: code}
		if _, err := codegen(tac, nil, Options{Procs: 1}, 0); err == nil {
			t.Errorf("%s: expected codegen error", name)
		}
	}
}

func TestLayoutAddressing(t *testing.T) {
	l := NewLayout([]lang.ArrayDecl{
		{Name: "A", Dims: []int64{2, 3}},
		{Name: "B", Dims: []int64{4}},
	}, 100)
	if a, _ := l.Addr("A", 0, 0); a != 100 {
		t.Errorf("A[0][0] = %d, want 100", a)
	}
	if a, _ := l.Addr("A", 1, 2); a != 105 {
		t.Errorf("A[1][2] = %d, want 105", a)
	}
	if a, _ := l.Addr("B", 0); a != 106 {
		t.Errorf("B[0] = %d, want 106", a)
	}
	if l.Words != 110 {
		t.Errorf("words = %d, want 110", l.Words)
	}
	if _, err := l.Addr("A", 2, 0); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := l.Addr("A", 1); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := l.Addr("Z", 0); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestTaskAsmTextRoundTrips(t *testing.T) {
	// Compiled tasks must survive AsmText -> Assemble (the fuzzcc -emit
	// pipeline).
	prog := lang.MustParse(poissonSrc)
	c, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range c.Tasks {
		text := task.Machine.AsmText()
		p2, err := isa.Assemble(text)
		if err != nil {
			t.Fatalf("P%d re-assemble: %v", task.Proc, err)
		}
		if p2.Len() != task.Machine.Len() {
			t.Errorf("P%d: %d instrs after round trip, want %d", task.Proc, p2.Len(), task.Machine.Len())
		}
		if !strings.Contains(text, ".barrier") {
			t.Errorf("P%d: emitted text has no barrier regions", task.Proc)
		}
	}
}

func TestCycleEstimates(t *testing.T) {
	prog := lang.MustParse(poissonSrc)
	reorder, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatal(err)
	}
	// Machine-level estimate must roughly track the simulator: a single
	// processor running one iteration takes about the estimated total.
	me := reorder.Tasks[0].Estimate()
	if me.Total() <= 0 {
		t.Fatalf("machine estimate = %+v", me)
	}
	if me.BarrierShare() <= 0 || me.BarrierShare() >= 1 {
		t.Errorf("machine barrier share = %.2f, want in (0,1)", me.BarrierShare())
	}
}

func TestMachineLevelReorderingIsWeaker(t *testing.T) {
	// Section 4's claim: post-codegen reordering is restricted by the
	// register reuse the code generator introduced. Compare the same
	// algorithm at both levels on the span-mode Poisson task.
	prog := lang.MustParse(poissonSrc)
	span, err := Compile(prog, Options{Procs: 4, Mode: RegionSpan})
	if err != nil {
		t.Fatal(err)
	}
	reorder, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatal(err)
	}
	window := LargestNonBarrierWindow(span.Tasks[0].Machine)
	if len(window) == 0 {
		t.Fatal("no non-barrier window in span task")
	}
	split, err := ReorderMachineWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	pre, nb, post := split.Sizes()
	if pre+nb+post != len(window) {
		t.Fatalf("split %d+%d+%d does not partition %d", pre, nb, post, len(window))
	}
	if nb >= len(window) {
		t.Errorf("machine reorder moved nothing: nb=%d of %d", nb, len(window))
	}
	tacWindow := LargestNonBarrierWindow(reorder.Tasks[0].Machine)
	if nb <= len(tacWindow) {
		t.Errorf("machine-level nb (%d) should exceed TAC-level machine nb (%d): register reuse restricts it",
			nb, len(tacWindow))
	}
	// Memory accesses all stay in the non-barrier portion.
	for _, in := range split.Pre {
		if in.TouchesMemory() {
			t.Errorf("memory op moved to pre: %v", in)
		}
	}
	for _, in := range split.Post {
		if in.TouchesMemory() {
			t.Errorf("memory op moved to post: %v", in)
		}
	}
}

func TestReorderMachineWindowRejectsControl(t *testing.T) {
	code := []isa.Instr{{Op: isa.BR}}
	if _, err := ReorderMachineWindow(code); err == nil {
		t.Error("control instruction accepted")
	}
}

func TestMachineRegisterDepsRespectScratchReuse(t *testing.T) {
	// Two address materializations through the same scratch register: the
	// second LDI must not move ahead of the load that reads the first.
	code := []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 100}, // r1 = &a
		{Op: isa.LD, Rd: 4, Rs: 1},     // marked: r4 = [r1]
		{Op: isa.LDI, Rd: 1, Imm: 200}, // r1 = &b (recycles r1: anti-dep on the load)
		{Op: isa.LD, Rd: 5, Rs: 1},     // marked: r5 = [r1]
		{Op: isa.ADD, Rd: 6, Rs: 4, Rt: 5},
	}
	split, err := ReorderMachineWindow(code)
	if err != nil {
		t.Fatal(err)
	}
	pre, nb, post := split.Sizes()
	// Only the first LDI can move to pre; the second is pinned behind the
	// first load by the register recycle, and the final ADD depends on
	// marked loads so it lands in post.
	if pre != 1 || nb != 3 || post != 1 {
		t.Errorf("split = %d/%d/%d, want 1/3/1\npre=%v\nnb=%v\npost=%v",
			pre, nb, post, split.Pre, split.NonBarrier, split.Post)
	}
}

// TestCodegenIsDeterministic compiles every example program many times
// and requires one machine listing per program: register allocation
// must not depend on map iteration order.
func TestCodegenIsDeterministic(t *testing.T) {
	files, err := filepath.Glob("../../examples/programs/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		listing := func() string {
			c, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			var sb strings.Builder
			for _, tk := range c.Tasks {
				sb.WriteString(tk.Machine.Disassemble())
			}
			return sb.String()
		}
		want := listing()
		for i := 1; i < 30; i++ {
			if listing() != want {
				t.Errorf("%s: compile %d produced a different machine listing", filepath.Base(f), i+1)
				break
			}
		}
	}
}
