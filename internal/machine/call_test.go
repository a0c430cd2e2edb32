package machine

import (
	"strings"
	"testing"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/isa"
)

func TestCallRetBasics(t *testing.T) {
	// main: r1 = 5; CALL double; CALL double; store r1 -> 20.
	b := isa.NewBuilder("call")
	b.Ldi(1, 5).
		Call("double").
		Call("double").
		Ldi(2, 90).St(2, 0, 1).Halt()
	b.Label("double").Add(1, 1, 1).Ret()
	p := b.MustBuild()
	if err := p.Validate(false); err != nil {
		t.Fatalf("validate: %v", err)
	}
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mustPeek(m.Mem(), 90); got != 20 {
		t.Errorf("mem[90] = %d, want 20", got)
	}
}

func TestNestedCalls(t *testing.T) {
	b := isa.NewBuilder("nested")
	b.Ldi(1, 0).
		Call("outer").
		Ldi(2, 91).St(2, 0, 1).Halt()
	b.Label("outer").Addi(1, 1, 1).Call("inner").Addi(1, 1, 1).Ret()
	b.Label("inner").Addi(1, 1, 100).Ret()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mustPeek(m.Mem(), 91); got != 102 {
		t.Errorf("mem[91] = %d, want 102", got)
	}
}

func TestRetWithoutCallFaults(t *testing.T) {
	b := isa.NewBuilder("badret")
	b.Ret().Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 1 || !strings.Contains(res.Faults[0].Error(), "empty call stack") {
		t.Errorf("faults = %v", res.Faults)
	}
}

func TestCallStackOverflowFaults(t *testing.T) {
	b := isa.NewBuilder("recurse")
	b.Label("f").Call("f") // unbounded recursion
	m := New(Config{Procs: 1, Mem: simpleMem(1), MaxCycles: 10_000})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 1 || !strings.Contains(res.Faults[0].Error(), "overflow") {
		t.Errorf("faults = %v", res.Faults)
	}
}

// TestCallFromBarrierRegion captures the Section 9 semantics this
// implementation gives procedure calls from barrier regions:
//
//   - a callee compiled with barrier bits continues the caller's region
//     (one synchronization per iteration, drift still absorbed);
//   - a callee compiled as non-barrier code *splits* the region: the
//     processor must synchronize before executing the callee's first
//     instruction and raises its ready line again on return, so every
//     call inserts an extra barrier episode (consistent across identical
//     streams, but twice the synchronizations).
func TestCallFromBarrierRegion(t *testing.T) {
	build := func(self int, calleeInBarrier bool) *isa.Program {
		b := isa.NewBuilder("callreg")
		b.BarrierInit(1, uint64(core.AllExcept(2, self))).
			Ldi(1, 0).Ldi(2, 4).Br("loop")

		// The callee.
		if calleeInBarrier {
			b.InBarrier()
		} else {
			b.InNonBarrier()
		}
		b.Label("helper").Work(6).Ret()

		b.InNonBarrier().Label("loop").Work(10)
		b.InBarrier().Call("helper").Addi(1, 1, 1).CondBr(isa.BLT, 1, 2, "loop")
		b.InNonBarrier().Halt()
		return b.MustBuild()
	}
	for _, calleeInBarrier := range []bool{true, false} {
		m := New(Config{Procs: 2, Mem: simpleMem(2)})
		for p := 0; p < 2; p++ {
			if err := m.Load(p, build(p, calleeInBarrier)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("calleeInBarrier=%v: %v", calleeInBarrier, err)
		}
		want := int64(4) // one sync per iteration
		if !calleeInBarrier {
			want = 8 // region split: two syncs per iteration
		}
		if res.Syncs() != want {
			t.Errorf("calleeInBarrier=%v: syncs = %d, want %d",
				calleeInBarrier, res.Syncs(), want)
		}
	}
}

func TestVLIWIssueWidthSpeedsUpALUCode(t *testing.T) {
	// A long run of independent ALU work: width 4 should cut cycles
	// substantially; memory ops and branches still serialize.
	build := func() *isa.Program {
		b := isa.NewBuilder("vliw")
		for i := 0; i < 40; i++ {
			b.Ldi(isa.Reg(i%16+1), int64(i))
			b.Addi(isa.Reg(i%16+17), isa.Reg(i%16+1), 1)
		}
		b.Halt()
		return b.MustBuild()
	}
	run := func(width int) int64 {
		m := New(Config{Procs: 1, Mem: simpleMem(1), IssueWidth: width})
		if err := m.Load(0, build()); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	w1, w4 := run(1), run(4)
	if w4*2 > w1 {
		t.Errorf("width-4 cycles (%d) should be well under half of width-1 (%d)", w4, w1)
	}
}

func TestVLIWPreservesResultsAndBarriers(t *testing.T) {
	// The alternating-drift loop must produce identical sync counts and
	// results regardless of issue width.
	for _, width := range []int{1, 2, 4} {
		m := New(Config{Procs: 2, Mem: simpleMem(2), IssueWidth: width})
		for p := 0; p < 2; p++ {
			if err := m.Load(p, alternatingLoopProgram(t, p, 2, 5, 25, 30, 6)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
		if res.Syncs() != 6 {
			t.Errorf("width=%d: syncs = %d, want 6", width, res.Syncs())
		}
	}
}

func TestVLIWDoesNotBundleAcrossRegionBoundary(t *testing.T) {
	// Two ALU instructions with different barrier bits must take two
	// cycles even at width 8, because region entry is a semantic event.
	b := isa.NewBuilder("boundary")
	b.BarrierInit(1, 0) // no partners: sync immediate
	b.Ldi(1, 1)
	b.InBarrier().Ldi(2, 2).Ldi(3, 3)
	b.InNonBarrier().Ldi(4, 4).Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1), IssueWidth: 8})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// barrier-init+ldi bundle, then the two in-region ldis, then the
	// non-barrier ldi (+halt): at least 3 issue cycles.
	if res.Cycles < 3 {
		t.Errorf("cycles = %d, want >= 3 (region boundaries split bundles)", res.Cycles)
	}
}

func TestVLIWPreservesCompiledResults(t *testing.T) {
	// Compiled Figure 9 code must compute identical array contents at
	// every issue width — multi-issue is a timing feature, never a
	// semantic one. (Compiled code lives in internal/compiler; this test
	// drives raw programs through the same widths via the drift loop and
	// checks sync counts; the compiled-value check is
	// compiler.TestFig9ComputesCorrectValues.)
	base := func(width int) (int64, int64) {
		m := New(Config{Procs: 2, Mem: simpleMem(2), IssueWidth: width})
		for p := 0; p < 2; p++ {
			if err := m.Load(p, alternatingLoopProgram(t, p, 2, 4, 20, 25, 8)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Syncs(), res.Cycles
	}
	s1, c1 := base(1)
	s4, c4 := base(4)
	if s1 != s4 {
		t.Errorf("sync counts differ across widths: %d vs %d", s1, s4)
	}
	if c4 > c1 {
		t.Errorf("width 4 (%d cycles) should not be slower than width 1 (%d)", c4, c1)
	}
}
