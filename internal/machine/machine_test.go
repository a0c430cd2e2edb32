package machine

import (
	"errors"
	"strings"
	"testing"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/trace"
)

func simpleMem(procs int) mem.Config {
	return mem.Config{
		Words:       1 << 12,
		Procs:       procs,
		HitLatency:  1,
		MissLatency: 1,
		CacheLines:  0,
		Modules:     procs,
		ModuleBusy:  1,
	}
}

// loopProgram builds the canonical fuzzy-barrier loop: per iteration, a
// non-barrier phase of `work` cycles followed by a barrier region of
// `region` cycles, repeated iters times, synchronizing all `procs`
// processors at each iteration boundary.
func loopProgram(t *testing.T, self, procs int, work, region, iters int64) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("loop")
	b.InNonBarrier().
		BarrierInit(1, uint64(core.AllExcept(procs, self))).
		Ldi(1, 0).
		Ldi(2, iters)
	b.Label("loop")
	if work > 0 {
		b.Work(work)
	} else {
		b.Nop()
	}
	b.InBarrier()
	if region > 0 {
		b.Work(region)
	}
	b.Addi(1, 1, 1)
	b.CondBr(isa.BLT, 1, 2, "loop")
	b.InNonBarrier()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := p.Validate(false); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

func TestSingleProcessorArithmetic(t *testing.T) {
	b := isa.NewBuilder("arith")
	b.Ldi(1, 6).Ldi(2, 7).Mul(3, 1, 2). // r3 = 42
						Addi(4, 3, 100). // r4 = 142
						Ldi(5, 10).
						St(5, 0, 4). // mem[10] = 142
						Ld(6, 5, 0). // r6 = mem[10]
						St(5, 1, 6). // mem[11] = 142
						Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := mustPeek(m.Mem(), 11); got != 142 {
		t.Errorf("mem[11] = %d, want 142", got)
	}
	if res.Procs[0].Instructions != 9 {
		t.Errorf("instructions = %d, want 9", res.Procs[0].Instructions)
	}
	if res.Procs[0].StallCycles != 0 {
		t.Errorf("stalls = %d, want 0 (no barriers)", res.Procs[0].StallCycles)
	}
}

func TestPointBarrierStallsSlowerFreeRunner(t *testing.T) {
	// P0 does 5 cycles of work per iteration, P1 does 25, empty barrier
	// region: P0 must stall ~20 cycles per iteration.
	const iters = 8
	m := New(Config{Procs: 2, Mem: simpleMem(2)})
	if err := m.Load(0, loopProgram(t, 0, 2, 5, 0, iters)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, loopProgram(t, 1, 2, 25, 0, iters)); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Procs[0].StallCycles < int64(iters)*15 {
		t.Errorf("P0 stalls = %d, want >= %d", res.Procs[0].StallCycles, iters*15)
	}
	if res.Procs[1].StallCycles > 5 {
		t.Errorf("P1 stalls = %d, want ~0", res.Procs[1].StallCycles)
	}
	if res.Syncs() != iters {
		t.Errorf("syncs = %d, want %d", res.Syncs(), iters)
	}
}

// alternatingLoopProgram builds a loop whose non-barrier work alternates
// between `low` and `high` cycles by iteration parity, offset by the
// processor's parity — so in every iteration one processor is fast and the
// other slow, but the roles swap each time. This is *transient* drift of
// magnitude high−low, the phenomenon the fuzzy barrier absorbs (unlike
// persistent imbalance; see TestPersistentImbalanceNotAbsorbed).
func alternatingLoopProgram(t *testing.T, self, procs int, low, high, region, iters int64) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("altloop")
	b.InNonBarrier().
		BarrierInit(1, uint64(core.AllExcept(procs, self))).
		Ldi(1, 0).             // i
		Ldi(2, iters).         // limit
		Ldi(5, 2).             // modulus
		Ldi(6, int64(self%2)). // my parity
		Br("loop")
	b.Label("loop").
		Alu(isa.MOD, 7, 1, 5). // r7 = i % 2
		CondBr(isa.BEQ, 7, 6, "slow").
		Work(low).
		Br("join")
	b.Label("slow").Work(high)
	b.Label("join")
	b.InBarrier()
	if region > 0 {
		b.Work(region)
	}
	b.Addi(1, 1, 1).CondBr(isa.BLT, 1, 2, "loop")
	b.InNonBarrier().Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := p.Validate(false); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return p
}

func TestFuzzyRegionAbsorbsTransientDrift(t *testing.T) {
	// 20 cycles of alternating drift per iteration. With an empty region
	// the early processor stalls ~20 cycles every iteration; a 30-cycle
	// region absorbs the drift almost completely.
	const iters = 8
	run := func(region int64) int64 {
		m := New(Config{Procs: 2, Mem: simpleMem(2)})
		if err := m.Load(0, alternatingLoopProgram(t, 0, 2, 5, 25, region, iters)); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(1, alternatingLoopProgram(t, 1, 2, 5, 25, region, iters)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("region=%d run: %v", region, err)
		}
		if res.Syncs() != iters {
			t.Fatalf("region=%d syncs = %d, want %d", region, res.Syncs(), iters)
		}
		return res.TotalStalls()
	}
	point := run(0)
	fuzzy := run(30)
	if point < int64(iters)*10 {
		t.Errorf("point-barrier stalls = %d, want >= %d", point, iters*10)
	}
	if fuzzy > 8 {
		t.Errorf("fuzzy-barrier stalls = %d, want <= 8", fuzzy)
	}
}

func TestPersistentImbalanceNotAbsorbed(t *testing.T) {
	// When one processor's non-barrier work is permanently larger, the
	// other stalls by the difference every iteration regardless of the
	// region size: the fuzzy barrier tolerates drift, not load imbalance
	// (which Section 1 assigns to the compiler's work distribution).
	const iters = 8
	run := func(region int64) int64 {
		m := New(Config{Procs: 2, Mem: simpleMem(2)})
		if err := m.Load(0, loopProgram(t, 0, 2, 5, region, iters)); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(1, loopProgram(t, 1, 2, 25, region, iters)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Procs[0].StallCycles
	}
	small, large := run(0), run(30)
	perIter := int64(15)
	if small < iters*perIter || large < iters*perIter {
		t.Errorf("stalls small-region=%d large-region=%d, want both >= %d",
			small, large, iters*perIter)
	}
}

func TestBarrierOrdersMemory(t *testing.T) {
	// P0 stores 99 to mem[100] before the barrier; P1 loads mem[100]
	// after it. The load must observe the store.
	b0 := isa.NewBuilder("writer")
	b0.BarrierInit(1, uint64(core.MaskOf(1))).
		Ldi(1, 100).
		Ldi(2, 99).
		St(1, 0, 2)
	b0.InBarrier().Nop()
	b0.InNonBarrier().Halt()

	b1 := isa.NewBuilder("reader")
	b1.BarrierInit(1, uint64(core.MaskOf(0))).
		Work(3) // arrive a little later
	b1.InBarrier().Nop()
	b1.InNonBarrier().
		Ldi(1, 100).
		Ld(3, 1, 0).
		Ldi(4, 200).
		St(4, 0, 3). // mem[200] = loaded value
		Halt()

	m := New(Config{Procs: 2, Mem: simpleMem(2)})
	if err := m.Load(0, b0.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, b1.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := mustPeek(m.Mem(), 200); got != 99 {
		t.Errorf("reader observed %d, want 99", got)
	}
}

func TestInvalidBranchDeadlocks(t *testing.T) {
	// Figure 2: P0 branches directly from barrier1 into barrier2, so its
	// ready line never drops; it crosses both barriers on one sync while
	// P1 waits forever at barrier2.
	b0 := isa.NewBuilder("invalid")
	b0.BarrierInit(1, uint64(core.MaskOf(1)))
	b0.InBarrier().Nop().Br("bar2") // barrier1, jumping straight into barrier2
	b0.InNonBarrier().Work(5)       // skipped
	b0.InBarrier().Label("bar2").Nop().Nop()
	b0.InNonBarrier().Halt()
	p0 := b0.MustBuild()
	if err := p0.Validate(false); err == nil {
		t.Fatal("expected Figure-2 validation error, got nil")
	} else if !errors.Is(err, isa.ErrInvalidBranch) {
		t.Fatalf("validation error = %v, want ErrInvalidBranch", err)
	}

	b1 := isa.NewBuilder("partner")
	b1.BarrierInit(1, uint64(core.MaskOf(0)))
	b1.InBarrier().Nop() // barrier1
	b1.InNonBarrier().Work(5)
	b1.InBarrier().Nop().Nop() // barrier2
	b1.InNonBarrier().Halt()

	m := New(Config{Procs: 2, Mem: simpleMem(2), MaxCycles: 10_000})
	if err := m.Load(0, p0); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, b1.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err == nil {
		t.Fatal("expected deadlock, run succeeded")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !res.Deadlocked {
		t.Error("Result.Deadlocked = false, want true")
	}
}

func TestDisjointSubsetsSyncIndependently(t *testing.T) {
	// Processors {0,1} use tag 1, {2,3} use tag 2; the pairs must not
	// interfere even though all four share the broadcast network.
	mk := func(self, partner int, tag int64, work int64) *isa.Program {
		b := isa.NewBuilder("pair")
		b.BarrierInit(tag, uint64(core.MaskOf(partner))).
			Ldi(1, 0).Ldi(2, 5)
		b.Label("loop").Work(work)
		b.InBarrier().Addi(1, 1, 1).CondBr(isa.BLT, 1, 2, "loop")
		b.InNonBarrier().Halt()
		return b.MustBuild()
	}
	m := New(Config{Procs: 4, Mem: simpleMem(4)})
	for p, prog := range []*isa.Program{
		mk(0, 1, 1, 4), mk(1, 0, 1, 6), mk(2, 3, 2, 20), mk(3, 2, 2, 22),
	} {
		if err := m.Load(p, prog); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Pair {0,1} is much faster; if tags were ignored it would be held
	// back by pair {2,3} and accumulate large stalls.
	if res.Procs[0].HaltCycle >= res.Procs[2].HaltCycle {
		t.Errorf("fast pair halted at %d, slow pair at %d; want fast < slow",
			res.Procs[0].HaltCycle, res.Procs[2].HaltCycle)
	}
	for p := 0; p < 4; p++ {
		if res.Procs[p].Syncs != 5 {
			t.Errorf("P%d syncs = %d, want 5", p, res.Procs[p].Syncs)
		}
	}
}

func TestTagMismatchDeadlocks(t *testing.T) {
	mk := func(partner int, tag int64) *isa.Program {
		b := isa.NewBuilder("mismatch")
		b.BarrierInit(tag, uint64(core.MaskOf(partner)))
		b.InBarrier().Nop()
		b.InNonBarrier().Halt()
		return b.MustBuild()
	}
	m := New(Config{Procs: 2, Mem: simpleMem(2), MaxCycles: 10_000})
	if err := m.Load(0, mk(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, mk(0, 2)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestNonParticipantIgnoresBarrierRegions(t *testing.T) {
	// Tag 0 means "not participating": barrier-region instructions run
	// without ever stalling.
	b := isa.NewBuilder("solo")
	b.BarrierInit(0, 0)
	b.InBarrier().Work(5).Nop()
	b.InNonBarrier().Halt()
	m := New(Config{Procs: 2, Mem: simpleMem(2)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	// P1 left unloaded (halted).
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Procs[0].StallCycles != 0 {
		t.Errorf("stalls = %d, want 0", res.Procs[0].StallCycles)
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() int64 {
		m := New(Config{Procs: 2, Mem: simpleMem(2)})
		if err := m.Load(0, loopProgram(t, 0, 2, 5, 10, 6)); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(1, loopProgram(t, 1, 2, 9, 10, 6)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic: %d vs %d cycles", a, b)
	}
}

func TestWorkInstructionTiming(t *testing.T) {
	b := isa.NewBuilder("work")
	b.Work(50).Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Cycles < 50 || res.Cycles > 55 {
		t.Errorf("cycles = %d, want ~51", res.Cycles)
	}
}

func TestMarkerModeEquivalentToBitMode(t *testing.T) {
	// Under the marker encoding, region boundaries are instructions, so a
	// region cannot span the loop back-edge the way a bit-encoded one can;
	// the equivalent layout puts the region at the top of each iteration.
	build := func(marker bool, partner int, work int64) *isa.Program {
		var b *isa.Builder
		if marker {
			b = isa.NewMarkerBuilder("m")
		} else {
			b = isa.NewBuilder("b")
		}
		b.BarrierInit(1, uint64(core.MaskOf(partner))).Ldi(1, 0).Ldi(2, 4)
		b.Label("loop")
		b.InBarrier().Addi(1, 1, 1)
		b.InNonBarrier().Work(work).CondBr(isa.BLT, 1, 2, "loop").Halt()
		return b.MustBuild()
	}
	for _, marker := range []bool{false, true} {
		m := New(Config{Procs: 2, Mem: simpleMem(2)})
		if err := m.Load(0, build(marker, 1, 6)); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(1, build(marker, 0, 9)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("marker=%v run: %v", marker, err)
		}
		if res.Syncs() != 4 {
			t.Errorf("marker=%v syncs = %d, want 4", marker, res.Syncs())
		}
	}
}

func TestRecorderProducesGantt(t *testing.T) {
	rec := trace.NewRecorder(2)
	m := New(Config{Procs: 2, Mem: simpleMem(2), Recorder: rec})
	if err := m.Load(0, loopProgram(t, 0, 2, 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, loopProgram(t, 1, 2, 8, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := rec.Gantt()
	if g == "" {
		t.Fatal("empty gantt")
	}
	if len(rec.Events()) == 0 {
		t.Error("no events recorded")
	}
	counts := laneCounts(rec, 0)
	if counts[trace.KindStall]+counts[trace.KindBarrier]+counts[trace.KindSync] == 0 {
		t.Errorf("lane 0 recorded no barrier activity: %v", counts)
	}
}

func TestPipelineDelaysReadyLine(t *testing.T) {
	// With pipeline depth 4 the ready line rises 3 cycles after region
	// entry; two symmetric processors should still sync, just later.
	for _, depth := range []int64{1, 4} {
		m := New(Config{Procs: 2, Mem: simpleMem(2), PipelineDepth: depth})
		if err := m.Load(0, loopProgram(t, 0, 2, 5, 8, 3)); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(1, loopProgram(t, 1, 2, 5, 8, 3)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("depth=%d run: %v", depth, err)
		}
		if res.Syncs() != 3 {
			t.Errorf("depth=%d syncs = %d, want 3", depth, res.Syncs())
		}
	}
}

func TestFaultHaltsProcessor(t *testing.T) {
	b := isa.NewBuilder("fault")
	b.Ldi(1, 5).Ldi(2, 0).Alu(isa.DIV, 3, 1, 2).Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("faults = %v, want exactly one", res.Faults)
	}
}

func TestPipelineShortRegionCannotSkipSync(t *testing.T) {
	// A 2-instruction barrier region under pipeline depth 8: the ready
	// line rises 7 cycles after region entry. The processor must NOT
	// cross before the line rises and synchronization fires — a short
	// region never silently skips a barrier.
	build := func(self, work int64) *isa.Program {
		b := isa.NewBuilder("short")
		b.BarrierInit(1, uint64(core.MaskOf(1-int(self))))
		b.Work(work)
		b.InBarrier().Nop().Nop()
		b.InNonBarrier().Halt()
		return b.MustBuild()
	}
	m := New(Config{Procs: 2, Mem: simpleMem(2), PipelineDepth: 8, MaxCycles: 10_000})
	if err := m.Load(0, build(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, build(1, 40)); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for p := 0; p < 2; p++ {
		if res.Procs[p].Syncs != 1 {
			t.Errorf("P%d syncs = %d, want 1 (no skipped barrier)", p, res.Procs[p].Syncs)
		}
	}
	// The fast processor must have waited for the slow one: both halt
	// after the slow one's arrival (~cycle 40+).
	if res.Procs[0].HaltCycle < 40 {
		t.Errorf("P0 halted at %d, before P1 arrived", res.Procs[0].HaltCycle)
	}
}

// TestPhaseAttributionMatchesAggregates wires a trace.Phases into an
// unbalanced two-processor run and checks the structural invariant of
// the observability layer: per-phase cycle attribution sums to exactly
// the aggregate counters the machine already reports, for every kind.
func TestPhaseAttributionMatchesAggregates(t *testing.T) {
	const iters = 6
	ph := trace.NewPhases(2)
	m := New(Config{Procs: 2, Mem: simpleMem(2), Phases: ph})
	if err := m.Load(0, loopProgram(t, 0, 2, 5, 0, iters)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(1, loopProgram(t, 1, 2, 25, 0, iters)); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.TotalStalls() == 0 {
		t.Fatal("workload produced no stalls; test needs imbalance")
	}

	var phaseStalls int64
	for phase := 0; phase < ph.NumPhases(); phase++ {
		phaseStalls += ph.PhaseCycles(phase, trace.KindStall)
	}
	if phaseStalls != res.TotalStalls() {
		t.Errorf("per-phase stalls sum = %d, want aggregate %d", phaseStalls, res.TotalStalls())
	}
	if got := ph.KindTotal(trace.KindStall); got != res.TotalStalls() {
		t.Errorf("KindTotal(stall) = %d, want %d", got, res.TotalStalls())
	}

	var mem, work int64
	for _, p := range res.Procs {
		mem += p.MemCycles
		work += p.WorkCycles
	}
	if got := ph.KindTotal(trace.KindMemory); got != mem {
		t.Errorf("KindTotal(memory) = %d, want %d", got, mem)
	}
	if got := ph.KindTotal(trace.KindWork); got != work {
		t.Errorf("KindTotal(work) = %d, want %d", got, work)
	}

	// One phase per synchronization plus the post-sync tail (loop exit
	// and halt cycles land after the final sync).
	if got := ph.NumPhases(); got != iters+1 {
		t.Errorf("phases = %d, want %d (one per episode + tail)", got, iters+1)
	}
	// Early episodes must carry the stalls: the fast processor stalls in
	// every full episode, the tail phase has no barrier left to stall on.
	if ph.PhaseCycles(0, trace.KindStall) == 0 {
		t.Error("phase 0 shows no stalls despite 5-vs-25 imbalance")
	}
	if got := ph.PhaseCycles(iters, trace.KindStall); got != 0 {
		t.Errorf("tail phase stalls = %d, want 0", got)
	}
}

// TestPhasesAndRecorderAgree runs the same machine with both sinks and
// cross-checks them: the per-kind totals of the phase aggregator match
// the Gantt lanes' counts, modulo the sync/halt overwrite cycles, which the
// lanes render but the phase attribution books under the activity the
// processor actually performed.
func TestPhasesAndRecorderAgree(t *testing.T) {
	const iters = 4
	ph := trace.NewPhases(2)
	rec := trace.NewRecorder(2)
	m := New(Config{Procs: 2, Mem: simpleMem(2), Recorder: rec, Phases: ph})
	for p := 0; p < 2; p++ {
		if err := m.Load(p, loopProgram(t, p, 2, int64(5+20*p), 0, iters)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for p := 0; p < 2; p++ {
		counts := laneCounts(rec, p)
		var lane, attributed int64
		for k, n := range counts {
			if k == trace.KindIdle {
				continue
			}
			lane += n
		}
		for _, k := range trace.Kinds {
			for phase := 0; phase < ph.NumPhases(); phase++ {
				attributed += ph.ProcCounts(p, phase)[k.Index()]
			}
		}
		// Lane overwrites: each sync cycle and the halt cycle replace an
		// attributed mark, so the lane shows the same cycle count.
		if lane != attributed {
			t.Errorf("P%d: lane active cycles = %d, phase-attributed = %d (counts %v)", p, lane, attributed, counts)
		}
	}
}

// mustPeek reads simulated memory at addr without timing, panicking on a
// bad address.
func mustPeek(s *mem.System, addr int64) int64 {
	v, err := s.Peek(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// laneCounts counts the cycles of each activity kind in processor p's lane
// of rec's Gantt chart, which pads a short lane with idle cycles.
func laneCounts(rec *trace.Recorder, p int) map[trace.Kind]int64 {
	lane := strings.Split(rec.Gantt(), "\n")[p+1][len("P0    "):]
	counts := map[trace.Kind]int64{}
	for _, c := range []byte(lane) {
		counts[trace.Kind(c)]++
	}
	return counts
}
