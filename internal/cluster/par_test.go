package cluster

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParallelConfigValidation pins the Shards knob's edges: clamping
// to [1, Nodes].
func TestParallelConfigValidation(t *testing.T) {
	base := Config{Protocol: "central", Nodes: 4, Epochs: 1}

	cfg := base
	cfg.Shards = 64
	got, err := cfg.withDefaults()
	if err != nil {
		t.Fatalf("Shards > Nodes rejected: %v", err)
	}
	if got.Shards != 4 {
		t.Errorf("Shards clamped to %d, want Nodes (4)", got.Shards)
	}

	cfg = base
	cfg.Shards = -3
	if got, err = cfg.withDefaults(); err != nil || got.Shards != 1 {
		t.Errorf("negative Shards -> (%d, %v), want (1, nil)", got.Shards, err)
	}
}

// TestParallelWatchdogEquivalence: the three stuck diagnoses must come
// out byte-identical on the sharded engine — report, event log, and
// counters. The coordinator's careful-mode fallback is what makes this
// exact: any window in which the budget could fire is stepped serially
// in global key order.
func TestParallelWatchdogEquivalence(t *testing.T) {
	hooks := map[string]func(string, ProtoEnv) Proto{
		"event queue drained":                       func(string, ProtoEnv) Proto { return muteProto{} },
		"no epoch completed within watchdog window": func(_ string, env ProtoEnv) Proto { return &chatterProto{env: env} },
		"tick budget exhausted":                     func(_ string, env ProtoEnv) Proto { return &chatterProto{env: env} },
	}
	for why, hook := range hooks {
		cfg := watchdogConfig(1)
		cfg.LogEvents = true
		switch why {
		case "no epoch completed within watchdog window":
			cfg.WatchdogAfter = 500
		case "tick budget exhausted":
			cfg.WatchdogAfter = 1 << 40
			cfg.MaxTicks = 300
		}
		newProtoHook = hook
		run := func(shards int) (*Result, string, string) {
			c := cfg
			c.Shards = shards
			s, err := New(c)
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", why, shards, err)
			}
			res, rerr := s.Run()
			if rerr == nil {
				t.Fatalf("%s/shards=%d: broken protocol completed", why, shards)
			}
			return res, strings.Join(s.EventLog(), "\n"), rerr.Error()
		}
		serRes, serLog, serErr := run(1)
		parRes, parLog, parErr := run(3)
		newProtoHook = nil
		if serRes.Stuck == nil || serRes.Stuck.Why != why {
			t.Fatalf("%s: serial diagnosis = %+v", why, serRes.Stuck)
		}
		if !reflect.DeepEqual(serRes, parRes) {
			t.Errorf("%s: results diverge:\nserial:   %+v\nparallel: %+v", why, serRes.Stuck, parRes.Stuck)
		}
		if serLog != parLog {
			t.Errorf("%s: event logs diverge:\n%s", why, firstDiff(parLog, serLog))
		}
		if serErr != parErr {
			t.Errorf("%s: errors diverge:\nserial:   %s\nparallel: %s", why, serErr, parErr)
		}
	}
}

// TestParallelEngineZeroAllocSteadyState mirrors the serial check: once
// arenas, wheels, inbox cells and the window barriers have reached
// their high-water marks, a whole lookahead window — worker dispatch,
// cross-shard inbox traffic, barrier crossings and the coordinator's
// bookkeeping — allocates nothing.
func TestParallelEngineZeroAllocSteadyState(t *testing.T) {
	cfg := Config{
		Protocol: "dissemination", Nodes: 8, Epochs: 1 << 20,
		Work: 40, WorkJitter: 10, Region: 20,
		Net:    NetConfig{Latency: 8, Jitter: 6, DropRate: 0.05, DupRate: 0.02},
		Seed:   99,
		Shards: 2,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the coordinator by hand (Run's inner loop) so allocations
	// can be sampled mid-flight.
	s.ran = true
	s.start()
	p := s.par
	p.startWorkers()
	defer p.shutdown()
	step := func(windows int) {
		for i := 0; i < windows; i++ {
			if !p.stepWindow() {
				t.Fatalf("run stopped during steady state: %v", s.stuck)
			}
		}
	}
	step(20000) // warm past every pool's and bucket's high-water mark
	avg := testing.AllocsPerRun(10, func() { step(200) })
	if avg != 0 {
		t.Errorf("steady-state parallel window allocates (%.1f allocs per 200 windows)", avg)
	}
	if p.doneCount() == len(s.nodes) {
		t.Fatal("run completed during measurement; raise Epochs")
	}
}

// parGateConfig is the lossy 1024-node run the parallel speedup gate
// times (one protocol: the gate measures the engine, not the protocol
// spread, and dissemination generates the densest cross-shard traffic).
func parGateConfig() Config {
	return Config{
		Protocol: "dissemination", Nodes: 1024, Epochs: 20,
		Work: 120, WorkJitter: 40, Region: 30,
		Net:  NetConfig{Latency: 12, Jitter: 25, DropRate: 0.2, DupRate: 0.08},
		Seed: 1234,
	}
}

// TestParallelEngineSpeedupGate is the perf regression gate (run via
// `make bench-gate` with BENCH_GATE=1): the sharded engine must be at
// least 2x faster than the serial fast engine on the lossy 1024-node
// run. Self-skips below 4 cores — the contract is defined at
// GOMAXPROCS >= 4; fewer cores cannot show the parallelism.
func TestParallelEngineSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to run the wall-clock parallel-engine gate")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: the 2x parallel gate is defined at >= 4 cores", runtime.GOMAXPROCS(0))
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	measure := func(sh int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			cfg := parGateConfig()
			cfg.Shards = sh
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := s.Run()
			if err != nil || res.Stuck != nil {
				t.Fatalf("shards=%d: gate run failed: %v", sh, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	par := measure(shards)
	speedup := float64(serial) / float64(par)
	t.Logf("serial %v, parallel(%d shards) %v: speedup %.2fx", serial, shards, par, speedup)
	if speedup < 2.0 {
		t.Fatalf("parallel engine speedup %.2fx below the 2x gate (serial %v, parallel %v)", speedup, serial, par)
	}
}
