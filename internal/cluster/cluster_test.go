package cluster

import (
	"math"
	"strings"
	"testing"
)

// runSim builds and runs one sim, failing the test on construction
// errors. Stuck runs are returned (res.Stuck non-nil) for inspection.
func runSim(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil && res.Stuck == nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// base returns a small healthy configuration.
func base(proto string, nodes int) Config {
	return Config{
		Protocol: proto, Nodes: nodes, Epochs: 20,
		Work: 200, WorkJitter: 40, Region: 0,
		Net:  NetConfig{Latency: 10, Jitter: 0},
		Seed: 42,
	}
}

// TestProtocolsCompleteCleanNetwork: every protocol finishes every
// epoch on a lossless network across awkward node counts (1, powers of
// two, primes).
func TestProtocolsCompleteCleanNetwork(t *testing.T) {
	for _, proto := range Protocols() {
		for _, nodes := range []int{1, 2, 4, 7, 8, 13} {
			res := runSim(t, base(proto, nodes))
			if res.Stuck != nil {
				t.Fatalf("%s/n=%d stuck:\n%s", proto, nodes, res.Stuck)
			}
			if res.Retransmits != 0 {
				t.Errorf("%s/n=%d: %d spurious retransmits on a lossless network", proto, nodes, res.Retransmits)
			}
			for n := range res.ReleaseAt {
				for e, rel := range res.ReleaseAt[n] {
					if rel < res.ArriveAt[n][e] {
						t.Fatalf("%s/n=%d: node %d epoch %d released at %d before its own arrive at %d",
							proto, nodes, n, e, rel, res.ArriveAt[n][e])
					}
				}
			}
		}
	}
}

// TestRegionAbsorbsSyncLatency is the paper's claim in the network
// regime: with zero drift, the stall at region 0 is exactly the
// protocol's release latency, and a region longer than that latency
// absorbs it completely.
func TestRegionAbsorbsSyncLatency(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := base(proto, 8)
		cfg.WorkJitter = 0 // no drift: stall isolates protocol latency
		crisp := runSim(t, cfg)
		if crisp.StallPerEpoch() <= 0 {
			t.Errorf("%s: crisp barrier shows no stall (%.2f); sync latency should be visible", proto, crisp.StallPerEpoch())
		}
		cfg.Region = 40 * cfg.Net.Latency
		fuzzy := runSim(t, cfg)
		if fuzzy.Stall != 0 {
			t.Errorf("%s: a region far longer than the sync latency still stalls %d ticks", proto, fuzzy.Stall)
		}
	}
}

// TestLossyNetworkRecovers: heavy loss and duplication delay epochs but
// never wedge or corrupt them; retransmissions must actually occur.
func TestLossyNetworkRecovers(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := base(proto, 6)
		cfg.Net = NetConfig{Latency: 10, Jitter: 15, DropRate: 0.3, DupRate: 0.2}
		res := runSim(t, cfg)
		if res.Stuck != nil {
			t.Fatalf("%s stuck under loss:\n%s", proto, res.Stuck)
		}
		if res.Retransmits == 0 {
			t.Errorf("%s: 30%% drop produced no retransmissions", proto)
		}
		if res.Drops == 0 || res.Dups == 0 {
			t.Errorf("%s: fault injection inactive (drops=%d dups=%d)", proto, res.Drops, res.Dups)
		}
	}
}

// TestStragglerShowsUpAsPeerStall: slowing one node transfers stall to
// the others (they wait for it), while the straggler itself stalls
// least.
func TestStragglerShowsUpAsPeerStall(t *testing.T) {
	cfg := base("central", 4)
	cfg.WorkJitter = 0
	cfg.Straggler = 2
	cfg.StraggleExtra = 300
	res := runSim(t, cfg)
	if res.Stuck != nil {
		t.Fatalf("stuck:\n%s", res.Stuck)
	}
	for n, st := range res.PerNodeStall {
		if n == 2 {
			continue
		}
		if st <= res.PerNodeStall[2] {
			t.Errorf("node %d stall %d not above straggler's %d", n, st, res.PerNodeStall[2])
		}
	}
}

// TestWatchdogReportsStuckNodeEpoch: a fully partitioned network (100%
// drop) must be diagnosed, not hung: Run returns an error naming the
// laggiest node and epoch, with one state line per node.
func TestWatchdogReportsStuckNodeEpoch(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := base(proto, 3)
		cfg.Epochs = 5
		cfg.Net.DropRate = 1.0
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err == nil || res.Stuck == nil {
			t.Fatalf("%s: fully lossy run completed?", proto)
		}
		if res.Stuck.Epoch != 0 {
			t.Errorf("%s: stuck epoch = %d, want 0 (nothing can complete)", proto, res.Stuck.Epoch)
		}
		if len(res.Stuck.States) != cfg.Nodes {
			t.Errorf("%s: %d state lines, want %d", proto, len(res.Stuck.States), cfg.Nodes)
		}
		if !strings.Contains(err.Error(), "stuck") {
			t.Errorf("%s: error does not say stuck: %v", proto, err)
		}
	}
}

// TestDegenerateShapes: zero epochs and tiny shapes must not panic or
// divide by zero.
func TestDegenerateShapes(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := base(proto, 1)
		cfg.Epochs = 0
		res := runSim(t, cfg)
		if res.Stuck != nil || res.StallPerEpoch() != 0 {
			t.Errorf("%s: zero-epoch run misbehaved: %+v", proto, res)
		}
	}
}

// TestConfigValidation: bad protocols, node and epoch counts, fault
// rates and stragglers are rejected up front; an epoch count past
// Message.Epoch's 32 bits is refused by name.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Protocol: "quantum", Nodes: 4, Epochs: 1},
		{Protocol: "central", Nodes: 0, Epochs: 1},
		{Protocol: "central", Nodes: 4, Epochs: -1},
		{Protocol: "central", Nodes: 4, Epochs: 1, Net: NetConfig{DropRate: 1.5}},
		{Protocol: "central", Nodes: 4, Epochs: 1, Net: NetConfig{DupRate: -0.1}},
		{Protocol: "central", Nodes: 4, Epochs: 1, Net: NetConfig{DropRate: math.NaN()}},
		{Protocol: "central", Nodes: 4, Epochs: 1, Net: NetConfig{DupRate: math.NaN()}},
		{Protocol: "central", Nodes: 4, Epochs: 1, Straggler: 4, StraggleExtra: 500},
		{Protocol: "central", Nodes: 4, Epochs: 1, Straggler: -1, StraggleExtra: 500},
		{Protocol: "central", Nodes: 4, Epochs: math.MaxInt32 + 1},
	}
	for i, cfg := range bad {
		_, err := New(cfg)
		if err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
			continue
		}
		if cfg.Epochs > math.MaxInt32 && !strings.Contains(err.Error(), "Epochs") {
			t.Errorf("config %d: error %q does not name Epochs", i, err)
		}
	}
	if _, err := New(base("tree", 4)); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestRunTwiceRejected: a Sim is single-shot; replay needs a fresh Sim.
func TestRunTwiceRejected(t *testing.T) {
	s, err := New(base("central", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run accepted")
	}
}
