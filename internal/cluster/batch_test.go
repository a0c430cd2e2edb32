package cluster

import (
	"reflect"
	"sync"
	"testing"

	"fuzzybarrier/internal/trace"
)

// batchTestConfig is a lossy small-cluster run: drops, duplicates and
// retransmissions keep every engine subsystem busy while staying fast
// enough to replay across many seeds.
func batchTestConfig() Config {
	return Config{
		Protocol: "dissemination", Nodes: 6, Epochs: 12,
		Work: 150, WorkJitter: 60, Region: 30,
		Straggler: 3, StraggleExtra: 45,
		Net: NetConfig{Latency: 12, Jitter: 25, DropRate: 0.15, DupRate: 0.1},
	}
}

// soloRuns is the reference RunBatch is held to: one ordinary Run per
// seed, one after another.
func soloRuns(t *testing.T, cfg Config, seeds []uint64) ([]*Result, []error) {
	t.Helper()
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		results[i], errs[i] = s.Run()
	}
	return results, errs
}

// TestBatchEquivalence pins RunBatch's contract: per-seed Results are
// identical to solo Runs — across protocols, at any worker count
// (GOMAXPROCS included), with fewer seeds than workers, with no seeds,
// and with a shared Recorder (which clamps the pool to one worker; run
// under -race).
func TestBatchEquivalence(t *testing.T) {
	var seeds []uint64
	for s := uint64(1); s <= 9; s++ {
		seeds = append(seeds, s)
	}
	for _, proto := range Protocols() {
		cfg := batchTestConfig()
		cfg.Protocol = proto
		want, wantErrs := soloRuns(t, cfg, seeds)
		for i, seed := range seeds {
			if wantErrs[i] != nil {
				t.Fatalf("%s/seed=%d: solo run failed: %v", proto, seed, wantErrs[i])
			}
		}
		for _, tc := range []struct {
			name     string
			seeds    int // a prefix of seeds
			workers  int
			recorder bool
		}{
			{"workers=1", 9, 1, false},
			{"workers=3", 9, 3, false},
			{"workers=GOMAXPROCS", 9, 0, false},
			{"seeds<workers", 2, 5, false},
			{"no seeds", 0, 3, false},
			{"shared recorder", 4, 3, true},
		} {
			c := cfg
			if tc.recorder {
				c.Recorder = trace.NewRecorder(c.Nodes)
			}
			got, errs := RunBatch(c, seeds[:tc.seeds], tc.workers, nil)
			if len(got) != tc.seeds || len(errs) != tc.seeds {
				t.Fatalf("%s/%s: %d results, %d errors, want %d of each", proto, tc.name, len(got), len(errs), tc.seeds)
			}
			for i, seed := range seeds[:tc.seeds] {
				if errs[i] != nil {
					t.Fatalf("%s/%s/seed=%d: batch run failed: %v", proto, tc.name, seed, errs[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/%s/seed=%d: batch Result diverges from solo Run:\nbatch: %+v\nsolo:  %+v",
						proto, tc.name, seed, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchStuckEquivalence: seeds that the watchdog declares stuck
// must produce the same Result, diagnosis and error as solo runs, and
// must not abort the seeds after them.
func TestBatchStuckEquivalence(t *testing.T) {
	cfg := batchTestConfig()
	cfg.Protocol = "central"
	cfg.WatchdogAfter = 1 << 40
	cfg.MaxTicks = 300 // every seed trips the tick budget mid-run
	seeds := []uint64{1, 2, 3, 4, 5}
	want, wantErrs := soloRuns(t, cfg, seeds)
	for _, workers := range []int{1, 2} {
		results, errs := RunBatch(cfg, seeds, workers, nil)
		for i, seed := range seeds {
			if wantErrs[i] == nil || results[i] == nil || errs[i] == nil {
				t.Fatalf("seed=%d/workers=%d: expected stuck runs (solo err %v, batch err %v)", seed, workers, wantErrs[i], errs[i])
			}
			if !reflect.DeepEqual(results[i], want[i]) {
				t.Errorf("seed=%d/workers=%d: stuck batch Result diverges:\nbatch: %+v\nsolo:  %+v", seed, workers, results[i], want[i])
			}
			if errs[i].Error() != wantErrs[i].Error() {
				t.Errorf("seed=%d/workers=%d: stuck errors diverge:\nbatch: %v\nsolo:  %v", seed, workers, errs[i], wantErrs[i])
			}
		}
	}
}

// TestBatchProgress pins the progress hook contract — one call per
// seed, counts 1..len(seeds) in order, total always len(seeds), calls
// never concurrent — on the serial engine, on the sharded one, and for
// a configuration New rejects: there every seed gets a nil Result and
// the same error, and progress still reaches total (clustersim relies
// on that to exit with the error).
func TestBatchProgress(t *testing.T) {
	seeds := []uint64{7, 8, 9, 10}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		workers int
		wantErr string
	}{
		{"serial", func(*Config) {}, 2, ""},
		{"serial/workers=1", func(*Config) {}, 1, ""},
		{"sharded", func(c *Config) { c.Shards = 2 }, 2, ""},
		{"config error", func(c *Config) { c.Nodes = 0 }, 2, "cluster: need >= 1 node, got 0"},
		{"config error/workers=1", func(c *Config) { c.Nodes = 0 }, 1, "cluster: need >= 1 node, got 0"},
	} {
		cfg := batchTestConfig()
		cfg.Epochs = 4
		tc.mutate(&cfg)
		var mu sync.Mutex
		var calls []int
		results, errs := RunBatch(cfg, seeds, tc.workers, func(done, total int) {
			if !mu.TryLock() {
				t.Errorf("%s: progress called concurrently", tc.name)
				return
			}
			defer mu.Unlock()
			if total != len(seeds) {
				t.Errorf("%s: progress total = %d, want %d", tc.name, total, len(seeds))
			}
			calls = append(calls, done)
		})
		if tc.wantErr != "" {
			for i, seed := range seeds {
				if results[i] != nil || errs[i] == nil || errs[i].Error() != tc.wantErr {
					t.Errorf("%s/seed=%d: got (%v, %v), want (nil, %q)", tc.name, seed, results[i], errs[i], tc.wantErr)
				}
			}
		} else {
			want, _ := soloRuns(t, cfg, seeds)
			for i, seed := range seeds {
				if errs[i] != nil {
					t.Fatalf("%s/seed=%d: %v", tc.name, seed, errs[i])
				}
				if !reflect.DeepEqual(results[i], want[i]) {
					t.Errorf("%s/seed=%d: batch Result diverges from solo Run", tc.name, seed)
				}
			}
		}
		if len(calls) != len(seeds) {
			t.Fatalf("%s: progress called %d times, want %d", tc.name, len(calls), len(seeds))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("%s: progress counts not monotone: %v", tc.name, calls)
			}
		}
	}
}
