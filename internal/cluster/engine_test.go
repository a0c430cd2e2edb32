package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// equivalenceNets are the network regimes the engine-equivalence matrix
// covers: lossless, jittery (reordering), and fully faulty (drops,
// duplicates, jitter).
func equivalenceNets() []struct {
	name string
	net  NetConfig
} {
	return []struct {
		name string
		net  NetConfig
	}{
		{"clean", NetConfig{Latency: 10}},
		{"jitter", NetConfig{Latency: 12, Jitter: 25}},
		{"lossy", NetConfig{Latency: 12, Jitter: 25, DropRate: 0.15, DupRate: 0.1}},
	}
}

// shardCounts is the shard dimension of the equivalence matrix:
// degenerate (1), small powers of two, and whatever this machine's
// GOMAXPROCS happens to be (deduplicated).
func shardCounts() []int {
	counts := []int{1, 2, 4}
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range counts {
		if c == gmp {
			return counts
		}
	}
	return append(counts, gmp)
}

// TestEngineEquivalence pins the sharded engine to the serial one:
// across every protocol, network regime, shard count and a spread of
// seeds, all must produce byte-identical event logs and identical
// Results. The sharded lookahead-window engine may change who
// dispatches the schedule, but never what it replays; what the serial
// engine itself replays is held by TestTranscriptPins.
func TestEngineEquivalence(t *testing.T) {
	for _, proto := range Protocols() {
		for _, nc := range equivalenceNets() {
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := Config{
					Protocol: proto, Nodes: 6, Epochs: 15,
					Work: 150, WorkJitter: 60, Region: 30,
					Straggler: 3, StraggleExtra: 45,
					Net:       nc.net,
					Seed:      seed,
					LogEvents: true,
				}
				fastLog, fastRes := collectLog(t, cfg)
				if fastLog == "" {
					t.Fatalf("%s/%s/seed=%d: empty event log", proto, nc.name, seed)
				}
				for _, shards := range shardCounts() {
					cfg.Shards = shards
					parLog, parRes := collectLog(t, cfg)
					if parLog != fastLog {
						t.Fatalf("%s/%s/seed=%d/shards=%d: parallel engine diverges:\n%s",
							proto, nc.name, seed, shards, firstDiff(parLog, fastLog))
					}
					if !reflect.DeepEqual(parRes, fastRes) {
						t.Fatalf("%s/%s/seed=%d/shards=%d: identical logs but different Results:\npar:    %v\nserial: %v",
							proto, nc.name, seed, shards, parRes, fastRes)
					}
				}
				cfg.Shards = 0
			}
		}
	}
}

// TestFastEngineZeroAllocSteadyState pins the headline property: once
// the arena, heap, outbox rings and timer queues have reached their
// high-water marks, the schedule/dispatch path allocates nothing — on a
// faulty network, with retransmissions and duplicate deliveries in
// flight.
func TestFastEngineZeroAllocSteadyState(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := Config{
			Protocol: proto, Nodes: 8, Epochs: 1 << 20,
			Work: 40, WorkJitter: 10, Region: 20,
			Net:  NetConfig{Latency: 8, Jitter: 6, DropRate: 0.05, DupRate: 0.02},
			Seed: 99,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Drive the engine by hand (Run's inner loop) so allocations can
		// be sampled mid-flight.
		s.ran = true
		s.start()
		step := func(count int) {
			for i := 0; i < count; i++ {
				if s.ex.stepFast(math.MaxInt64) != stepOK {
					t.Fatalf("%s: run stopped during steady state: %v", proto, s.stuck)
				}
			}
		}
		step(300000) // warm past every pool's and bucket's high-water mark
		avg := testing.AllocsPerRun(10, func() { step(2000) })
		if avg != 0 {
			t.Errorf("%s: steady-state schedule/dispatch allocates (%.1f allocs per 2000 events)", proto, avg)
		}
		if s.ex.doneNodes == len(s.nodes) {
			t.Fatalf("%s: run completed during measurement; raise Epochs", proto)
		}
	}
}

// TestConfigBudgetOverflow: deriving the default watchdog/tick budgets
// from enormous knobs must surface a config error, never wrap into a
// negative budget that declares every run stuck at t=0. Explicit
// budgets sidestep the derivation and keep such configs constructible.
func TestConfigBudgetOverflow(t *testing.T) {
	huge := Config{
		Protocol: "central", Nodes: 2, Epochs: math.MaxInt32,
		Work: math.MaxInt64 / 4,
		Net:  NetConfig{Latency: 10},
	}
	if _, err := huge.withDefaults(); err == nil {
		t.Fatal("withDefaults accepted a config whose derived tick budget overflows int64")
	}
	huge.WatchdogAfter = math.MaxInt64 / 2
	huge.MaxTicks = math.MaxInt64 / 2
	got, err := huge.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults rejected explicit budgets: %v", err)
	}
	for name, v := range map[string]int64{
		"WatchdogAfter": got.WatchdogAfter, "MaxTicks": got.MaxTicks,
	} {
		if v <= 0 {
			t.Errorf("explicit %s came out non-positive (%d)", name, v)
		}
	}
}

// gateConfigs is the lossy-network sweep behind gateResultsPin: every
// protocol at two fan-ins, with drops, duplicates and jitter keeping a
// realistic retransmission load in flight.
func gateConfigs() []Config {
	var cfgs []Config
	for _, proto := range Protocols() {
		for _, nodes := range []int{256, 1024} {
			cfgs = append(cfgs, Config{
				Protocol: proto, Nodes: nodes, Epochs: 20,
				Work: 120, WorkJitter: 40, Region: 30,
				Net:  NetConfig{Latency: 12, Jitter: 25, DropRate: 0.2, DupRate: 0.08},
				Seed: 1234,
			})
		}
	}
	return cfgs
}
