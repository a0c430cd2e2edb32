// Package workload generates the simulator programs the experiments run:
// synchronizing loops with controllable drift, the Figure 7 if-statement
// loop, software counter barriers (the hot-spot baseline of experiment
// E2), the Figure 11 static schedules and the Figure 12 run-time
// self-scheduled loop.
//
// All generators are deterministic: pseudo-randomness comes from an
// explicit des.RNG seeded by the caller, so experiment tables are
// reproducible run to run.
package workload

import (
	"fmt"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
)

// SyncLoop describes the canonical synchronizing loop: each iteration
// executes Work[k] cycles of non-barrier work followed by a barrier region
// of Region cycles, synchronizing all Procs processors.
type SyncLoop struct {
	Self   int
	Procs  int
	Tag    core.Tag
	Work   []int64 // per-iteration non-barrier work (length = iterations)
	Region int64   // barrier-region work per iteration
}

// Program builds the (unrolled) machine program.
func (s SyncLoop) Program() (*isa.Program, error) {
	if s.Procs < 1 || s.Self < 0 || s.Self >= s.Procs {
		return nil, fmt.Errorf("workload: bad self/procs %d/%d", s.Self, s.Procs)
	}
	if len(s.Work) == 0 {
		return nil, fmt.Errorf("workload: SyncLoop needs at least one iteration")
	}
	tag := s.Tag
	if tag == core.TagNone {
		tag = 1
	}
	b := isa.NewBuilder(fmt.Sprintf("syncloop-p%d", s.Self))
	b.BarrierInit(int64(tag), uint64(core.AllExcept(s.Procs, s.Self)))
	for k, w := range s.Work {
		b.InNonBarrier()
		if w > 0 {
			b.Work(w).Comment("iteration %d work", k)
		} else {
			b.Nop()
		}
		b.InBarrier()
		if s.Region > 0 {
			b.Work(s.Region).Comment("iteration %d barrier region", k)
		} else {
			b.Nop().Comment("null barrier region")
		}
	}
	b.InNonBarrier().Halt()
	return b.Build()
}

// UniformWork returns n iterations of fixed cost.
func UniformWork(n int, cost int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = cost
	}
	return out
}

// DriftWork returns n iterations whose cost is base plus a uniformly
// random jitter in [0, jitter), drawn from rng — the cache-miss/branch
// execution-rate drift of Section 1. Different processors should use
// differently-seeded RNGs.
func DriftWork(rng *des.RNG, n int, base, jitter int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + rng.IntN(jitter)
	}
	return out
}

// IfLoop is the Figure 7 workload: each iteration runs S1 (fixed cost),
// then an if-statement whose branches cost ThenWork and ElseWork; the
// branch taken varies pseudo-randomly per processor and iteration. With
// FuzzyIf the entire if-statement is part of the barrier region ("if the
// entire statement is part of the barrier region then there are
// situations where the variation ... will not result in a stall"); without
// it, a single-nop barrier region follows the if (the point barrier of
// Figure 7(b)(i)).
type IfLoop struct {
	Self     int
	Procs    int
	Iters    int
	S1Work   int64
	ThenWork int64
	ElseWork int64
	FuzzyIf  bool
	Seed     uint64
}

// Program builds the machine program.
func (c IfLoop) Program() (*isa.Program, error) {
	if c.Procs < 1 || c.Self < 0 || c.Self >= c.Procs {
		return nil, fmt.Errorf("workload: bad self/procs %d/%d", c.Self, c.Procs)
	}
	rng := des.NewRNG(c.Seed + uint64(c.Self)*0x9E37 + 1)
	b := isa.NewBuilder(fmt.Sprintf("ifloop-p%d", c.Self))
	b.BarrierInit(1, uint64(core.AllExcept(c.Procs, c.Self)))
	for k := 0; k < c.Iters; k++ {
		b.InNonBarrier()
		b.Work(c.S1Work).Comment("S1, iteration %d", k)
		if c.FuzzyIf {
			b.InBarrier()
		} else {
			b.InNonBarrier()
		}
		// The if-statement: a real conditional branch so the barrier
		// region has multiple control paths (Section 3). The predicate is
		// loaded as a per-iteration pseudo-random constant.
		cond := rng.IntN(2)
		thenLbl := fmt.Sprintf("then_%d", k)
		joinLbl := fmt.Sprintf("join_%d", k)
		b.Ldi(1, cond).Comment("cond, iteration %d", k)
		b.Ldi(2, 1)
		b.CondBr(isa.BEQ, 1, 2, thenLbl)
		b.Work(c.ElseWork).Comment("S3 (else)")
		b.Br(joinLbl)
		b.Label(thenLbl).Work(c.ThenWork).Comment("S2 (then)")
		b.Label(joinLbl)
		if c.FuzzyIf {
			b.Nop().Comment("end of barrier region")
		} else {
			b.InBarrier().Nop().Comment("point barrier")
		}
	}
	b.InNonBarrier().Halt()
	return b.Build()
}
