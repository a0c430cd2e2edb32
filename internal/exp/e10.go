package exp

import (
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/workload"
)

// E10StallProbability quantifies the Section 2 claim "the larger the
// barrier regions, the less likely it is that the processors will stall":
// with random drift of amplitude J, stall cycles per iteration fall as the
// region length grows, reaching (near) zero once the region exceeds the
// drift.
func E10StallProbability() (*trace.Table, error) {
	const (
		procs  = 4
		iters  = 400
		base   = 60
		jitter = 50
		seeds  = 3
	)
	t := trace.NewTable(
		"E10: stall cycles per iteration vs. barrier-region length (drift amplitude 50)",
		"region", "stall/iter (avg over seeds)", "max stall/iter", "cycles/iter",
	)
	var series stats.Series
	regions := []int64{0, 10, 20, 30, 40, 50, 60, 80}
	type e10Cell struct{ stall, cyc float64 }
	// Flatten the (region, seed) grid into independent sweep cells.
	cells, err := sweepRun(len(regions)*seeds, func(i int) (e10Cell, error) {
		region := regions[i/seeds]
		seed := i % seeds
		progs := make([]*isa.Program, procs)
		for p := 0; p < procs; p++ {
			rng := des.NewRNG(uint64(seed*1000+p*17) + 3)
			progs[p] = must(workload.SyncLoop{
				Self: p, Procs: procs,
				Work:   workload.DriftWork(rng, iters, base, jitter),
				Region: region,
			}.Program())
		}
		_, res, err := runPrograms(machine.Config{Mem: simpleMem(procs, 256)}, progs)
		if err != nil {
			return e10Cell{}, err
		}
		return e10Cell{
			stall: perIter(res.TotalStalls()/procs, iters),
			cyc:   perIter(res.Cycles, iters),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ri, region := range regions {
		var stallSamples, cycSamples []float64
		for seed := 0; seed < seeds; seed++ {
			c := cells[ri*seeds+seed]
			stallSamples = append(stallSamples, c.stall)
			cycSamples = append(cycSamples, c.cyc)
		}
		s := stats.Summarize(stallSamples)
		c := stats.Mean(cycSamples)
		t.AddRow(region, s.Mean, s.Max, c)
		series.Add(float64(region), s.Mean)
	}
	if series.Monotone(-1, 0.1) {
		t.AddNote("stall time decreases monotonically in region length; with independent per-iteration jitter the inter-processor skew random-walks, so a small residual remains even for region > drift")
	} else {
		t.AddNote("WARNING: series not monotone (unexpected)")
	}
	return t, nil
}
