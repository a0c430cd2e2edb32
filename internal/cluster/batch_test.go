package cluster

import (
	"reflect"
	"sync"
	"testing"
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

// TestBatchEquivalence pins the batch executor's contract: RunBatch's
// per-seed Results (and errors) are identical to solo Runs — across
// protocols, worker counts, and group boundaries (more seeds than one
// lockstep group holds).
func TestBatchEquivalence(t *testing.T) {
	var seeds []uint64
	for s := uint64(1); s <= 9; s++ {
		seeds = append(seeds, s)
	}
	for _, proto := range Protocols() {
		cfg := batchTestConfig()
		cfg.Protocol = proto
		want := make([]*Result, len(seeds))
		for i, seed := range seeds {
			c := cfg
			c.Seed = seed
			s, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = s.Run(); err != nil {
				t.Fatalf("%s/seed=%d: solo run failed: %v", proto, seed, err)
			}
		}
		for _, workers := range []int{1, 3} {
			got, errs := RunBatch(cfg, seeds, workers, nil)
			for i, seed := range seeds {
				if errs[i] != nil {
					t.Fatalf("%s/seed=%d/workers=%d: batch run failed: %v", proto, seed, workers, errs[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/seed=%d/workers=%d: batch Result diverges from solo Run:\nbatch: %+v\nsolo:  %+v",
						proto, seed, workers, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchStuckEquivalence: lanes that the watchdog declares stuck
// must produce the same diagnosis and error as solo runs — the lockstep
// bound must not shift where the tick budget fires.
func TestBatchStuckEquivalence(t *testing.T) {
	cfg := batchTestConfig()
	cfg.Protocol = "central"
	cfg.WatchdogAfter = 1 << 40
	cfg.MaxTicks = 300 // every seed trips the tick budget mid-run
	seeds := []uint64{1, 2, 3, 4, 5}
	results, errs := RunBatch(cfg, seeds, 2, nil)
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantErr := s.Run()
		if wantErr == nil || results[i] == nil || errs[i] == nil {
			t.Fatalf("seed=%d: expected stuck runs (solo err %v, batch err %v)", seed, wantErr, errs[i])
		}
		if !reflect.DeepEqual(results[i], wantRes) {
			t.Errorf("seed=%d: stuck batch Result diverges:\nbatch: %+v\nsolo:  %+v", seed, results[i], wantRes)
		}
		if errs[i].Error() != wantErr.Error() {
			t.Errorf("seed=%d: stuck errors diverge:\nbatch: %v\nsolo:  %v", seed, errs[i], wantErr)
		}
	}
}

// TestBatchFallbackAndProgress covers the non-lockstep path (sharded
// runs) plus the progress hook contract: monotone counts, one call
// per seed, total always len(seeds), and hook calls never concurrent.
func TestBatchFallbackAndProgress(t *testing.T) {
	cfg := batchTestConfig()
	cfg.Epochs = 4
	cfg.Shards = 2
	seeds := []uint64{7, 8, 9, 10}
	var mu sync.Mutex
	var calls []int
	results, errs := RunBatch(cfg, seeds, 2, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(seeds) {
			t.Errorf("progress total = %d, want %d", total, len(seeds))
		}
		calls = append(calls, done)
	})
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed=%d: %v", seed, errs[i])
		}
		c := cfg
		c.Seed = seed
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := s.Run()
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("seed=%d: fallback batch Result diverges from solo Run", seed)
		}
	}
	if len(calls) != len(seeds) {
		t.Fatalf("progress called %d times, want %d", len(calls), len(seeds))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress counts not monotone: %v", calls)
		}
	}
}

// TestBatchLanesMemoryAware pins the group-size policy's shape: small
// clusters batch many lanes, huge ones degrade gracefully to one.
func TestBatchLanesMemoryAware(t *testing.T) {
	if g := batchLanes(8); g != batchMaxLanes {
		t.Errorf("batchLanes(8) = %d, want the %d-lane cap", g, batchMaxLanes)
	}
	if g := batchLanes(4096); g < 1 || g > 8 {
		t.Errorf("batchLanes(4096) = %d, want a small group", g)
	}
	if g := batchLanes(1 << 21); g != 1 {
		t.Errorf("batchLanes(2M) = %d, want 1", g)
	}
	prev := batchMaxLanes + 1
	for _, n := range []int{8, 64, 512, 4096, 1 << 15} {
		g := batchLanes(n)
		if g > prev {
			t.Errorf("batchLanes not non-increasing: batchLanes(%d) = %d after %d", n, g, prev)
		}
		prev = g
	}
}
