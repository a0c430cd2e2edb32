package check

import (
	"math"
	"strings"
	"testing"

	"fuzzybarrier/internal/cluster"
)

// TestVerifyProtocols exhaustively verifies every protocol at small n
// under the full adversary (reorder + drop + duplication) — the
// tentpole property: no early release and no deadlock on any reachable
// interleaving.
func TestVerifyProtocols(t *testing.T) {
	for _, proto := range cluster.Protocols() {
		for n := 1; n <= 3; n++ {
			res, err := Run(Config{Protocol: proto, Nodes: n, Epochs: 2})
			if err != nil {
				t.Fatalf("%s n=%d: %v", proto, n, err)
			}
			if res.Violation != nil {
				t.Fatalf("%s n=%d: %v", proto, n, res.Violation)
			}
			t.Logf("%s", res)
			if n > 1 && res.States < 10 {
				t.Errorf("%s n=%d: suspiciously small state space (%d states)", proto, n, res.States)
			}
		}
	}
}

// TestVerifyProtocolsWide pushes to n=4 (pure reordering, one epoch) —
// wider fan-in/fan-out shapes: the central coordinator with three
// remote arrivals, a depth-2 tree, and a two-round dissemination
// pattern with wraparound.
func TestVerifyProtocolsWide(t *testing.T) {
	if testing.Short() {
		t.Skip("state space too large for -short")
	}
	// Full adversary for central and tree (~40k states); dissemination
	// at n=4 has ~1M reachable states with duplication (45s), so it
	// runs pure-reorder here and keeps the full adversary at n=3.
	for _, cfg := range []Config{
		{Protocol: "central", Nodes: 4, Epochs: 2},
		{Protocol: "tree", Nodes: 4, Epochs: 2},
		{Protocol: "tree", Nodes: 4, Epochs: 2, TreeArity: 3},
		{Protocol: "dissemination", Nodes: 4, Epochs: 2, MaxDup: -1},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s n=%d: %v", cfg.Protocol, cfg.Nodes, err)
		}
		if res.Violation != nil {
			t.Fatalf("%s n=%d: %v", cfg.Protocol, cfg.Nodes, res.Violation)
		}
		t.Logf("%s", res)
	}
}

// TestMutationRetagStaleCaught seeds the missing-epoch-tag-check bug
// into each protocol and requires the checker to refute it with a
// counterexample trace ending in an early release (or a protocol
// panic, for machines whose internal invariants trip first).
func TestMutationRetagStaleCaught(t *testing.T) {
	for _, proto := range cluster.Protocols() {
		res, err := Run(Config{Protocol: proto, Nodes: 2, Epochs: 2, Mutation: MutationRetagStale()})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		v := res.Violation
		if v == nil {
			t.Fatalf("%s: mutated protocol passed verification — the checker is blind", proto)
		}
		if v.Property != "early-release" && v.Property != "panic" {
			t.Errorf("%s: expected early-release (or panic), got %q", proto, v.Property)
		}
		if len(v.Trace) == 0 {
			t.Errorf("%s: violation carries no counterexample trace", proto)
		}
		rendered := v.String()
		if !strings.Contains(rendered, "counterexample") {
			t.Errorf("%s: rendered violation lacks the trace: %s", proto, rendered)
		}
		t.Logf("%s counterexample:\n%s", proto, rendered)
	}
}

// TestMutationDropReleaseCaught seeds a lost-wake-up bug (the last node
// ignores release/round messages) and requires a deadlock
// counterexample.
func TestMutationDropReleaseCaught(t *testing.T) {
	for _, proto := range cluster.Protocols() {
		res, err := Run(Config{Protocol: proto, Nodes: 2, Epochs: 1, Mutation: MutationDropRelease()})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		v := res.Violation
		if v == nil {
			t.Fatalf("%s: mutated protocol passed verification — the checker is blind", proto)
		}
		if v.Property != "deadlock" {
			t.Errorf("%s: expected deadlock, got %q", proto, v.Property)
		}
		t.Logf("%s counterexample:\n%s", proto, v)
	}
}

// TestMinimalCounterexample: the BFS re-pass must shorten the DFS
// discovery path; for the central protocol at n=2 the shortest
// early-release trace is known to be small.
func TestMinimalCounterexample(t *testing.T) {
	res, err := Run(Config{Protocol: "central", Nodes: 2, Epochs: 2, Mutation: MutationRetagStale()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	// Epoch 0 needs 2 arrivals + 1 deliver + 1 release deliver; the bug
	// then needs one duplicate + at most a handful of steps for epoch 1.
	if got := len(res.Violation.Trace); got > 12 {
		t.Errorf("counterexample not minimized: %d steps\n%s", got, res.Violation)
	}
}

// TestBudgets: exhausted state/depth budgets are errors, not silent
// passes.
func TestBudgets(t *testing.T) {
	if _, err := Run(Config{Protocol: "dissemination", Nodes: 3, Epochs: 2, MaxStates: 50}); err == nil {
		t.Error("tiny MaxStates: expected a budget error")
	}
	if _, err := Run(Config{Protocol: "central", Nodes: 2, Epochs: 2, MaxDepth: 3}); err == nil {
		t.Error("tiny MaxDepth: expected a budget error")
	}
}

// TestConfigErrors: invalid configs are rejected up front.
func TestConfigErrors(t *testing.T) {
	for _, cfg := range []Config{
		{Protocol: "nope", Nodes: 2, Epochs: 1},
		{Protocol: "central", Nodes: 0, Epochs: 1},
		{Protocol: "central", Nodes: 2, Epochs: 0},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %+v: expected an error", cfg)
		}
	}
}

// TestOracleMatchesSimulator cross-checks the closed-form release-time
// recurrences against the simulator: on a clean network the predicted
// release matrix must equal Result.ReleaseAt tick for tick, for every
// protocol, size and seed tried.
func TestOracleMatchesSimulator(t *testing.T) {
	for _, proto := range cluster.Protocols() {
		for n := 1; n <= 6; n++ {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := cluster.Config{
					Protocol: proto, Nodes: n, Epochs: 4,
					Work: 20, WorkJitter: 13, Region: 3,
					Net:  cluster.NetConfig{Latency: 2},
					Seed: seed,
				}
				sim, err := cluster.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", proto, n, seed, err)
				}
				want, err := OracleReleases(proto, 2, cfg.Net.Latency, res.ArriveAt)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for e := range want[i] {
						if got := res.ReleaseAt[i][e]; got != want[i][e] {
							t.Fatalf("%s n=%d seed=%d node=%d epoch=%d: sim released at %d, oracle predicts %d (arrivals %v)",
								proto, n, seed, i, e, got, want[i][e], column(res.ArriveAt, e))
						}
					}
				}
			}
		}
	}
}

func column(m [][]int64, e int) []int64 {
	out := make([]int64, len(m))
	for i := range m {
		out[i] = m[i][e]
	}
	return out
}

// TestStallMomentsHandChecked pins StallMoments against a hand-computed
// case: central, n=2, L=1, jitter 1. The four jitter vectors give total
// stalls {3, 4, 2, 3}, so mean 3 and variance 1/2.
func TestStallMomentsHandChecked(t *testing.T) {
	mean, stdev, err := StallMoments("central", 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", mean)
	}
	if want := math.Sqrt(0.5); math.Abs(stdev-want) > 1e-12 {
		t.Errorf("stdev = %v, want %v", stdev, want)
	}
}

// TestStallMomentsBounds: the enumeration refuses absurd case counts
// and bad inputs.
func TestStallMomentsBounds(t *testing.T) {
	if _, _, err := StallMoments("central", 2, 1, 12, 7); err == nil {
		t.Error("8^12 cases: expected an error")
	}
	if _, _, err := StallMoments("central", 2, 1, 0, 1); err == nil {
		t.Error("0 nodes: expected an error")
	}
	if _, _, err := StallMoments("central", 2, 1, 2, -1); err == nil {
		t.Error("negative jitter: expected an error")
	}
	if _, err := ReleaseTimes("central", 2, 0, []int64{1}); err == nil {
		t.Error("latency 0: expected an error")
	}
	if _, err := ReleaseTimes("nope", 2, 1, []int64{1}); err == nil {
		t.Error("unknown protocol: expected an error")
	}
}
