package exp

import (
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/workload"
)

// E8RuntimeScheduling reproduces Figure 12: a loop whose iteration count
// is unknown at compile time, scheduled at run time by fetch-and-add
// claiming. Policies: one-at-a-time self-scheduling, fixed chunks, and
// guided self-scheduling (GSS); each measured with a point barrier and
// with a fuzzy barrier region after the drained loop. The iteration costs
// are triangular, the classic GSS-motivating workload.
func E8RuntimeScheduling() (*trace.Table, error) {
	const (
		procs  = 4
		iters  = 64
		base   = 10
		slope  = 3
		region = 150
	)
	t := trace.NewTable(
		"E8: run-time scheduling of loop iterations (Figure 12)",
		"policy", "barrier", "cycles", "stalls", "sched-ops(FAA)", "mem-accesses",
	)
	policies := []struct {
		name  string
		chunk int64
	}{
		{"self(1)", 1},
		{"chunk(8)", 8},
		{"gss", 0},
	}
	for _, pol := range policies {
		for _, reg := range []int64{0, region} {
			progs := make([]*isa.Program, procs)
			for p := 0; p < procs; p++ {
				progs[p] = must(workload.DynamicSchedLoop{
					Self: p, Procs: procs, Iters: iters,
					Base: base, Slope: slope, Region: reg, Chunk: pol.chunk,
				}.Program())
			}
			memCfg := simpleMem(procs, 256)
			memCfg.Modules = 1
			_, res, err := runPrograms(machine.Config{Mem: memCfg}, progs)
			if err != nil {
				return nil, err
			}
			kind := "point"
			if reg > 0 {
				kind = "fuzzy"
			}
			t.AddRow(pol.name, kind, res.Cycles, res.TotalStalls(),
				res.Mem.Atomics, res.Mem.Accesses)
		}
	}
	t.AddNote("self-scheduling pays one FAA per iteration; chunking stalls at the final barrier; GSS balances both, and the fuzzy region absorbs the residual finish-time spread")
	return t, nil
}
