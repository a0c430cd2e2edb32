package exp

import (
	"fmt"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/workload"
)

// E1 parameters: 4 processors (the Encore Multimax of Section 8), a fixed
// per-iteration body budget, and execution-rate drift injected as random
// jitter on the non-barrier work. The barrier region grows from zero to
// half the body, exactly the sweep the paper reports (10,000 µs → 300 µs).
const (
	e1Procs  = 4
	e1Iters  = 300
	e1Body   = 200 // cycles per iteration
	e1Jitter = 80  // drift amplitude in cycles
)

// E1SyncCostVsRegionSize reproduces the Section 8 measurement on the
// deterministic simulator: synchronization cost per iteration (stall
// cycles plus the elapsed-time excess over the drift-free ideal) as the
// barrier region grows from 0 to half the loop body.
func E1SyncCostVsRegionSize() (*trace.Table, error) {
	t := trace.NewTable(
		"E1: synchronization cost vs. barrier-region size (4 processors, Section 8)",
		"region(cycles)", "region(%body)", "stall/iter", "cycles/iter", "sync-overhead/iter", "speedup-vs-point",
	)
	var base float64
	var series stats.Series
	// Ideal cycles/iteration with no synchronization at all: the mean
	// per-iteration body cost (work mean + region = e1Body) plus the two
	// bookkeeping instructions of the unrolled loop. Everything above the
	// ideal is synchronization overhead: stall time plus the wait for the
	// slowest processor's drift.
	const ideal = e1Body + 2
	regions := []int64{0, 20, 40, 60, 80, 100}
	type e1Cell struct{ stall, cyc float64 }
	cells, err := sweepRun(len(regions), func(i int) (e1Cell, error) {
		stall, cyc := e1Run(regions[i])
		return e1Cell{stall, cyc}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, region := range regions {
		stall, cyc := cells[i].stall, cells[i].cyc
		overhead := cyc - ideal
		if overhead < 0 {
			overhead = 0
		}
		if region == 0 {
			base = overhead
		}
		speedup := stats.Speedup(base, overhead)
		t.AddRow(region, 100*region/e1Body, stall, cyc, overhead, trimSpeedup(speedup))
		series.Add(float64(region), overhead)
	}
	if !series.Monotone(-1, 0.15) {
		t.AddNote("WARNING: overhead series is not monotonically decreasing (unexpected)")
	} else {
		t.AddNote("overhead falls monotonically with region size, matching the 10,000->300 microsecond shape of Section 8")
	}
	return t, nil
}

func trimSpeedup(s float64) string {
	if s > 9999 {
		return ">9999x"
	}
	return fmt.Sprintf("%.1fx", s)
}

// e1Run executes the drift workload with the given region size and
// returns (stall cycles, total cycles) averaged per iteration per
// processor.
func e1Run(region int64) (stallPerIter, cyclesPerIter float64) {
	progs := make([]*isa.Program, e1Procs)
	for p := 0; p < e1Procs; p++ {
		rng := des.NewRNG(uint64(7919*p + 13))
		work := workload.DriftWork(rng, e1Iters, e1Body-region-e1Jitter/2, e1Jitter)
		progs[p] = must(workload.SyncLoop{
			Self: p, Procs: e1Procs, Work: work, Region: region,
		}.Program())
	}
	_, res, err := runPrograms(machine.Config{Mem: simpleMem(e1Procs, 1024)}, progs)
	if err != nil {
		panic(err)
	}
	stall := float64(res.TotalStalls()) / float64(e1Procs)
	return stall / float64(e1Iters), float64(res.Cycles) / float64(e1Iters)
}
