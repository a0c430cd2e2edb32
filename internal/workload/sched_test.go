package workload

import (
	"testing"

	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/sched"
)

func TestStaticSchedLoopRotatingFuzzyEliminatesStalls(t *testing.T) {
	const procs, rounds, iters, cost = 3, 12, 5, 20
	run := func(rotating bool, region int64) int64 {
		assign := func(r int) sched.Assignment {
			if rotating {
				return sched.Rotating(iters, procs, r)
			}
			return sched.Block(iters, procs)
		}
		progs := make([]*machineProgram, procs)
		for p := 0; p < procs; p++ {
			progs[p] = wrap(StaticSchedLoop{
				Self: p, Procs: procs, Rounds: rounds, Iters: iters,
				IterCost: cost, Region: region, Assign: assign,
			}.Program())
		}
		return runAll(t, progs, fastMem(procs)).TotalStalls()
	}
	fixedPoint := run(false, 0)
	rotFuzzy := run(true, 2*cost)
	if fixedPoint < int64(rounds)*cost/2 {
		t.Errorf("fixed+point stalls = %d, implausibly low", fixedPoint)
	}
	if rotFuzzy != 0 {
		t.Errorf("rotating+fuzzy stalls = %d, want 0", rotFuzzy)
	}
}

func TestStaticSchedLoopValidation(t *testing.T) {
	if _, err := (StaticSchedLoop{Self: 0, Procs: 1, Rounds: 1, Iters: 1, IterCost: 1}).Program(); err == nil {
		t.Error("missing Assign accepted")
	}
	if _, err := (StaticSchedLoop{Self: 5, Procs: 2}).Program(); err == nil {
		t.Error("bad self accepted")
	}
}

func TestDynamicSchedLoopDrainsAllIterations(t *testing.T) {
	const procs = 4
	const iters = 32
	for _, chunk := range []int64{1, 8, 0} { // self, fixed, gss
		progs := make([]*machineProgram, procs)
		for p := 0; p < procs; p++ {
			progs[p] = wrap(DynamicSchedLoop{
				Self: p, Procs: procs, Iters: iters,
				Base: 5, Slope: 1, Region: 40, Chunk: chunk,
			}.Program())
		}
		m := machine.New(machine.Config{Procs: procs, Mem: fastMem(procs)})
		for p, prog := range progs {
			if prog.err != nil {
				t.Fatalf("chunk=%d: %v", chunk, prog.err)
			}
			if err := prog.p.Validate(false); err != nil {
				t.Fatalf("chunk=%d validate: %v", chunk, err)
			}
			if err := m.Load(p, prog.p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("chunk=%d run: %v", chunk, err)
		}
		// The shared index must have advanced to >= iters (overshoot from
		// concurrent FAA claims is fine, undershoot is not).
		if got := mustPeek(m.Mem(), 12); got < iters {
			t.Errorf("chunk=%d: index = %d, want >= %d", chunk, got, iters)
		}
		if res.Syncs() != 1 {
			t.Errorf("chunk=%d: syncs = %d, want 1 (end-of-round barrier)", chunk, res.Syncs())
		}
	}
}

func TestDynamicSchedLoopGSSFasterThanChunked(t *testing.T) {
	// With triangular costs, static-ish big chunks misbalance; GSS should
	// finish in fewer cycles.
	const procs = 4
	const iters = 64
	run := func(chunk int64) int64 {
		progs := make([]*machineProgram, procs)
		for p := 0; p < procs; p++ {
			progs[p] = wrap(DynamicSchedLoop{
				Self: p, Procs: procs, Iters: iters,
				Base: 10, Slope: 3, Region: 0, Chunk: chunk,
			}.Program())
		}
		return runAll(t, progs, fastMem(procs)).Cycles
	}
	chunked := run(16)
	gss := run(0)
	if gss >= chunked {
		t.Errorf("gss cycles (%d) should beat chunk-16 (%d) on triangular work", gss, chunked)
	}
}

func TestDynamicSchedLoopValidation(t *testing.T) {
	if _, err := (DynamicSchedLoop{Self: 0, Procs: 1, Iters: 0}).Program(); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := (DynamicSchedLoop{Self: 3, Procs: 2, Iters: 5}).Program(); err == nil {
		t.Error("bad self accepted")
	}
}
