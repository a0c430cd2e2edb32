package exp

import (
	"fmt"
	"math"

	"fuzzybarrier/internal/check"
	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
)

// E17 parameters. The safety half model-checks every protocol at small
// n under the full adversary (reordering, duplication, bounded drop of
// duplicates); the timing half compares simulated stall against the
// closed-form oracle in internal/check.
const (
	e17CheckEpochs = 2 // two epochs catch cross-epoch confusion (stale releases)
	e17CheckMaxN   = 3 // n=3 keeps dissemination's state space ~30k

	// Statistical-oracle workload: one epoch, zero-length barrier region
	// (so stall == release - arrival exactly), unit latency, clean
	// network, work jitter drawn uniformly from {0..7}.
	e17Work       = 16
	e17WorkJitter = 7
	e17Latency    = 1
	e17Seeds      = 48 // independent runs per (protocol, n) cell
	e17ZBound     = 4.0
)

// e17OracleNodes are the cluster sizes for the stall-oracle comparison;
// StallMoments enumerates (jitter+1)^n vectors, so n stays <= 6.
var e17OracleNodes = []int{2, 4, 6}

// e17Oracle is one (protocol, n) statistical-oracle cell: the empirical
// mean of total per-epoch stall over e17Seeds runs, next to the exact
// moments from enumerating every jitter vector.
type e17Oracle struct {
	measured   float64 // mean of total stall over seeds
	exactMean  float64
	exactStdev float64
	z          float64 // (measured - exact) / (stdev / sqrt(seeds))
	mismatches int     // runs whose per-node stall != oracle release - arrival
}

// E17ModelCheckAndOracle verifies the cluster protocols two independent
// ways and tabulates both. Rows with phase "safety" are exhaustive
// model-checking verdicts from internal/check: every interleaving of
// arrivals, deliveries, duplicates and droppable duplicates at n <=
// e17CheckMaxN, proving no node is ever released before the whole
// cluster arrived and no reachable state deadlocks. Rows with phase
// "stall" are the statistical oracle: the simulator's total stall per
// epoch over e17Seeds seeded runs against the exact mean from
// enumerating all (jitter+1)^n work-jitter vectors through the
// closed-form release-time recurrences — the two must agree within
// e17ZBound standard errors, and every individual run's release
// timestamps must match the recurrences tick for tick.
func E17ModelCheckAndOracle() (*trace.Table, error) {
	t := trace.NewTable(
		"E17: exhaustive model checking + exact stall oracle vs. simulator",
		"phase", "protocol", "nodes", "explored", "measured", "exact", "verdict",
	)
	protos := cluster.Protocols()

	// Safety rows: (protocol, n) grid, n = 2..e17CheckMaxN. n=1 is
	// degenerate (a barrier over one node) and checked in package tests.
	nCheck := e17CheckMaxN - 1
	checks, err := sweepRun(len(protos)*nCheck, func(i int) (*check.Result, error) {
		res, err := check.Run(check.Config{
			Protocol: protos[i/nCheck],
			Nodes:    2 + i%nCheck,
			Epochs:   e17CheckEpochs,
		})
		if err != nil {
			return nil, fmt.Errorf("E17 check %s/n=%d: %w", protos[i/nCheck], 2+i%nCheck, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range checks {
		verdict := "ok: no early release, no deadlock"
		if res.Violation != nil {
			verdict = "VIOLATION: " + res.Violation.Property
			t.AddNote("WARNING: %s n=%d failed model checking:\n%s",
				res.Config.Protocol, res.Config.Nodes, res.Violation)
		}
		t.AddRow("safety", protos[i/nCheck], 2+i%nCheck,
			fmt.Sprintf("%d states, %d transitions", res.States, res.Transitions),
			"-", "-", verdict)
	}

	// Stall-oracle rows: (protocol, n) grid over e17OracleNodes.
	nN := len(e17OracleNodes)
	oracles, err := sweepRun(len(protos)*nN, func(i int) (*e17Oracle, error) {
		return e17OracleCell(protos[i/nN], e17OracleNodes[i%nN], e17Seed(i))
	})
	if err != nil {
		return nil, err
	}
	for i, o := range oracles {
		proto, nodes := protos[i/nN], e17OracleNodes[i%nN]
		verdict := fmt.Sprintf("ok: z=%.2f, releases exact in all %d runs", o.z, e17Seeds)
		if math.Abs(o.z) > e17ZBound || o.mismatches > 0 {
			verdict = fmt.Sprintf("MISMATCH: z=%.2f, %d runs off the recurrence", o.z, o.mismatches)
			t.AddNote("WARNING: %s n=%d disagrees with the exact stall oracle: %+v", proto, nodes, o)
		}
		t.AddRow("stall", proto, nodes,
			fmt.Sprintf("%d seeds x %d^%d vectors", e17Seeds, e17WorkJitter+1, nodes),
			fmt.Sprintf("%.3f", o.measured),
			fmt.Sprintf("%.3f +- %.3f", o.exactMean, o.exactStdev),
			verdict)
	}

	t.AddNote("safety: internal/check enumerates every arrival/delivery/duplicate/drop interleaving at n<=%d over %d epochs; a violation would print a minimal counterexample trace", e17CheckMaxN, e17CheckEpochs)
	t.AddNote("stall: with Region=0 each node's stall is exactly release-arrival; the exact column enumerates all work-jitter vectors through the closed-form release recurrences")
	t.AddNote("measured vs exact must agree within %.0f standard errors of the mean; every run's ReleaseAt matrix is also checked tick-for-tick against the recurrences", e17ZBound)
	return t, nil
}

// e17OracleCell runs e17Seeds independent simulations of one
// (protocol, n) configuration and folds them into an e17Oracle.
func e17OracleCell(proto string, nodes int, seed uint64) (*e17Oracle, error) {
	mean, stdev, err := check.StallMoments(proto, 2, e17Latency, nodes, e17WorkJitter)
	if err != nil {
		return nil, fmt.Errorf("E17 oracle %s/n=%d: %w", proto, nodes, err)
	}
	o := &e17Oracle{exactMean: mean, exactStdev: stdev}
	var sum float64
	for s := 0; s < e17Seeds; s++ {
		sim, err := cluster.New(cluster.Config{
			Protocol:   proto,
			Nodes:      nodes,
			Epochs:     1,
			Work:       e17Work,
			WorkJitter: e17WorkJitter,
			Region:     0,
			Net:        cluster.NetConfig{Latency: e17Latency},
			Seed:       des.Mix(seed, uint64(s)+1),
		})
		if err != nil {
			return nil, fmt.Errorf("E17 oracle %s/n=%d seed %d: %w", proto, nodes, s, err)
		}
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("E17 oracle %s/n=%d seed %d: %w", proto, nodes, s, err)
		}
		sum += float64(res.Stall)
		// Tick-for-tick check of this run against the recurrences.
		want, err := check.OracleReleases(proto, 2, e17Latency, res.ArriveAt)
		if err != nil {
			return nil, fmt.Errorf("E17 oracle %s/n=%d seed %d: %w", proto, nodes, s, err)
		}
		for i := range want {
			for e := range want[i] {
				if res.ReleaseAt[i][e] != want[i][e] {
					o.mismatches++
				}
			}
		}
	}
	o.measured = sum / e17Seeds
	if stdev > 0 {
		o.z = (o.measured - mean) / (stdev / math.Sqrt(e17Seeds))
	}
	return o, nil
}

// e17Seed derives a distinct, fixed base seed per oracle cell.
func e17Seed(cell int) uint64 { return uint64(0xE17<<20 | cell) }
