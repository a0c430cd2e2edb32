package exp

import (
	"fmt"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/splitmix"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/trace"
)

// E18 parameters: a fleet of n members ends every epoch by agreeing on
// the slowest member's duration (an allreduce max — the number a
// coordinator needs to pace the next epoch). The sweep holds the phase
// count fixed and scales n, comparing three aggregation strategies on
// the paper's own metric: atomic traffic on the hottest single word
// (Section 1's hot-spot concern, extended from pure synchronization to
// synchronization-plus-data).
const (
	e18Phases = 8
	e18Radix  = 4
)

// e18N is the member-count sweep (powers of four, so the radix-4 reduce
// tree is perfectly balanced at every point).
var e18N = []int{4, 16, 64, 256, 1024}

// e18Strategies: central-gather is the baseline (a FuzzyBarrier for the
// sync plus one shared accumulator word every member CASes into);
// reduce-spread is the ReduceBarrier with arrivals routed to their
// LeafFor home (zero probes — pure combining cost); reduce-clustered is
// the same barrier with every arrival aimed at leaf 0, the adversarial
// routing that maximizes probe traffic.
var e18Strategies = []string{"central-gather", "reduce-spread", "reduce-clustered"}

// E18FleetAggregation measures fleet epoch aggregation: allreduce via
// the combining reduce tree versus a central gather word. Expected
// shapes, checked with slack: the central strategy's hottest word takes
// ~n+2 operations per phase (every member's combine plus the drain pair)
// — the linear hot spot; reduce-spread's hottest node stays constant in
// n (3*radix+2 operations, set by the fan-in, not the fleet); and
// reduce-clustered recreates the linear hot spot (n - radix probe undos
// per phase land on leaf 0) — showing the tree only de-hot-spots the
// collective if arrivals actually spread. Every cell self-checks the
// allreduce result against the serial fold each phase. All cells are
// deterministic serial drives (the last arrival of a phase completes
// it); goroutine wall-clock for the same comparison lives in
// BenchmarkReduceAllreduce and BenchmarkE2SplitScaling (bench_test.go),
// per the repro note on time-shared measurements.
func E18FleetAggregation() (*trace.Table, error) {
	t := trace.NewTable(
		fmt.Sprintf("E18: fleet epoch aggregation, allreduce vs central gather, %d..%d members",
			e18N[0], e18N[len(e18N)-1]),
		"strategy", "members", "leaves", "depth", "probes/phase", "hotspot-ops/phase",
	)
	nN := len(e18N)
	cells, err := sweepRun(len(e18Strategies)*nN, func(i int) (e18Cell, error) {
		strategy := e18Strategies[i/nN]
		n := e18N[i%nN]
		cell, err := e18Run(strategy, n)
		if err != nil {
			return e18Cell{}, fmt.Errorf("E18 %s/n=%d: %w", strategy, n, err)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for si, strategy := range e18Strategies {
		var hotSeries stats.Series
		for ni, n := range e18N {
			cell := cells[si*nN+ni]
			t.AddRow(strategy, n, cell.leaves, cell.depth, cell.probesPerPhase, cell.hotspotPerPhase)
			hotSeries.Add(float64(n), cell.hotspotPerPhase)
			if !cell.foldOK {
				t.AddNote("WARNING: %s n=%d: an aggregated result disagreed with the serial fold", strategy, n)
			}
		}
		switch strategy {
		case "reduce-spread":
			// Constant in n: the hottest node sees its quota's deposits
			// plus the drain pair, regardless of fleet size.
			if lo, hi := seriesRange(hotSeries.Y); hi > lo {
				t.AddNote("WARNING: reduce-spread hotspot varies with members: %v", hotSeries.Y)
			}
		default:
			// Linear in n: central's shared word and clustered's leaf 0
			// both absorb ~one operation per member per phase.
			if !hotSeries.MonotoneSlack(1, 0.05, 0.5) {
				t.AddNote("WARNING: %s hotspot-ops/phase is not non-decreasing in members: %v", strategy, hotSeries.Y)
			}
			last := hotSeries.Y[len(hotSeries.Y)-1]
			if last < float64(e18N[nN-1]) {
				t.AddNote("WARNING: %s hotspot at n=%d is %.1f ops/phase, expected ~linear (>= n)", strategy, e18N[nN-1], last)
			}
		}
	}
	t.AddNote("central-gather: every member's combine lands on one shared word — n+2 ops/phase, Section 1's linear hot spot with data riding on it")
	t.AddNote("reduce-spread: combining up the radix tree caps the hottest node at 3*radix+2 ops/phase, constant in fleet size; Wait returns the allreduce result with no broadcast round")
	t.AddNote("reduce-clustered: aiming every arrival at leaf 0 pays n-radix probe undos there per phase — the tree only removes the hot spot if arrivals spread across the leaves")
	t.AddNote("every cell checks the aggregated max against the serial fold each phase; wall-clock for the same strategies is in BenchmarkReduceAllreduce (bench_test.go)")
	return t, nil
}

// e18Cell is one (strategy, n) measurement.
type e18Cell struct {
	leaves, depth   int
	probesPerPhase  float64
	hotspotPerPhase float64
	foldOK          bool
}

// e18Dur is member id's deterministic epoch duration for a phase — a
// fixed pseudo-random spread so the per-phase max moves around the
// fleet.
func e18Dur(phase, id int) int64 {
	z := splitmix.Finalize(uint64(phase)*1000003 + uint64(id) + 0xE18)
	return int64(1000 + z%512)
}

// e18Run drives one strategy at one fleet size, serially: the last
// arrival of a phase completes it, so a single goroutine exercises the
// full protocol deterministically.
func e18Run(strategy string, n int) (e18Cell, error) {
	switch strategy {
	case "central-gather":
		return e18RunCentral(n), nil
	case "reduce-spread":
		return e18RunReduce(n, true), nil
	case "reduce-clustered":
		return e18RunReduce(n, false), nil
	}
	return e18Cell{}, fmt.Errorf("unknown strategy %q", strategy)
}

// e18RunCentral models the baseline: a FuzzyBarrier paces the phases
// and every member folds its duration into one shared accumulator word
// before arriving; the phase-completing arrival drains and resets it.
// The serial drive is contention-free, so each combine is exactly one
// operation on the shared word — the deterministic floor of what a
// concurrent run would pay (CAS retries only add to it).
func e18RunCentral(n int) e18Cell {
	fb := core.NewFuzzyBarrier(n)
	acc := core.IdentityMax
	var accOps int64
	foldOK := true
	tickets := make([]core.Phase, n)
	for p := 0; p < e18Phases; p++ {
		want := core.IdentityMax
		for id := 0; id < n; id++ {
			v := e18Dur(p, id)
			want = core.OpMax(want, v)
			acc = core.OpMax(acc, v) // one CAS on the shared word
			accOps++
			tickets[id] = fb.Arrive()
		}
		got := acc
		acc = core.IdentityMax
		accOps += 2 // drain read + identity reset
		if got != want {
			foldOK = false
		}
		for id := 0; id < n; id++ {
			fb.Wait(tickets[id])
		}
	}
	barrierOps, phases := fb.HotspotOps()
	hot := accOps
	if barrierOps > hot {
		hot = barrierOps
	}
	return e18Cell{
		leaves: 1, depth: 1,
		hotspotPerPhase: perIter(hot, int(phases)),
		foldOK:          foldOK,
	}
}

// e18RunReduce drives the ReduceBarrier allreduce; spread routes member
// id to LeafFor(id) (zero probes), clustered aims everyone at leaf 0.
func e18RunReduce(n int, spread bool) e18Cell {
	rb := core.NewReduceBarrierRadix(n, e18Radix, core.OpMax, core.IdentityMax)
	foldOK := true
	tickets := make([]core.Phase, n)
	for p := 0; p < e18Phases; p++ {
		want := core.IdentityMax
		for id := 0; id < n; id++ {
			v := e18Dur(p, id)
			want = core.OpMax(want, v)
			leaf := 0
			if spread {
				leaf = rb.LeafFor(id)
			}
			tickets[id] = rb.ArriveValueLeaf(leaf, v)
		}
		for id := 0; id < n; id++ {
			if got := rb.WaitValue(tickets[id]); got != want {
				foldOK = false
			}
		}
	}
	ops, phases := rb.HotspotOps()
	return e18Cell{
		leaves:          rb.Leaves(),
		depth:           rb.Depth(),
		probesPerPhase:  perIter(rb.Probes(), int(phases)),
		hotspotPerPhase: perIter(ops, int(phases)),
		foldOK:          foldOK,
	}
}

// seriesRange returns the min and max of ys.
func seriesRange(ys []float64) (lo, hi float64) {
	lo, hi = ys[0], ys[0]
	for _, y := range ys[1:] {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return lo, hi
}
