package mem

import (
	"testing"
	"testing/quick"
)

func basic(procs int) Config {
	return Config{
		Words: 256, Procs: procs,
		HitLatency: 1, MissLatency: 10,
		CacheLines: 4, LineWords: 2,
		Modules: 1, ModuleBusy: 1,
	}
}

func TestPokePeek(t *testing.T) {
	s := New(basic(1))
	s.words[5] = 42
	v, err := s.Peek(5)
	if err != nil || v != 42 {
		t.Fatalf("peek = %d, %v", v, err)
	}
	if _, err := s.Peek(1 << 20); err == nil {
		t.Error("out-of-range peek accepted")
	}
}

func TestReadWriteSemantics(t *testing.T) {
	s := New(basic(2))
	done, err := s.Write(0, 10, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Errorf("write done = %d, want > 0", done)
	}
	v, _, err := s.Read(1, 10, done)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Errorf("read = %d, want 99", v)
	}
}

func TestColdMissThenHit(t *testing.T) {
	s := New(basic(1))
	_, done1, err := s.Read(0, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lat := done1 - 0; lat != 10 {
		t.Errorf("cold read latency = %d, want 10 (miss)", lat)
	}
	_, done2, err := s.Read(0, 8, done1)
	if err != nil {
		t.Fatal(err)
	}
	if lat := done2 - done1; lat != 1 {
		t.Errorf("warm read latency = %d, want 1 (hit)", lat)
	}
	// Same line, different word: also a hit (LineWords=2, addr 9).
	_, done3, err := s.Read(0, 9, done2)
	if err != nil {
		t.Fatal(err)
	}
	if lat := done3 - done2; lat != 1 {
		t.Errorf("same-line read latency = %d, want 1", lat)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits 1 miss", st)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	s := New(basic(1)) // 4 lines of 2 words: addresses 0 and 16 collide (line 0 and 8 mod 4=0)
	now := int64(0)
	_, now, _ = s.Read(0, 0, now)  // miss, fills line 0
	_, now, _ = s.Read(0, 16, now) // line 8 maps to slot 0: evicts
	_, done, _ := s.Read(0, 0, now)
	if lat := done - now; lat != 10 {
		t.Errorf("post-eviction read latency = %d, want 10", lat)
	}
}

func TestWriteInvalidatesOtherCaches(t *testing.T) {
	s := New(basic(2))
	now := int64(0)
	_, now, _ = s.Read(0, 8, now) // P0 caches line
	_, now, _ = s.Read(1, 8, now) // P1 caches line
	_, _ = s.Write(1, 8, 5, now)  // P1 writes: invalidates P0's copy
	_, done, _ := s.Read(0, 8, now+20)
	if lat := done - (now + 20); lat != 10 {
		t.Errorf("read after remote write latency = %d, want 10 (invalidated)", lat)
	}
	if s.Stats().Invalidates == 0 {
		t.Error("no invalidations recorded")
	}
}

func TestModuleQueueing(t *testing.T) {
	cfg := basic(2)
	cfg.CacheLines = 0 // uncached: every access goes to the module
	cfg.ModuleBusy = 5
	s := New(cfg)
	// Two simultaneous accesses to the same module must serialize.
	_, d0, _ := s.Read(0, 7, 100)
	_, d1, _ := s.Read(1, 7, 100)
	if d1 < d0+5 {
		t.Errorf("second access done at %d, want >= %d (queued)", d1, d0+5)
	}
	if s.Stats().QueueDelay == 0 {
		t.Error("queue delay not recorded")
	}
}

func TestInterleavedModulesAvoidQueueing(t *testing.T) {
	cfg := basic(2)
	cfg.CacheLines = 0
	cfg.Modules = 4
	cfg.ModuleBusy = 5
	s := New(cfg)
	_, d0, _ := s.Read(0, 0, 100) // module 0
	_, d1, _ := s.Read(1, 1, 100) // module 1
	if d0 != d1 {
		t.Errorf("different modules should not interfere: %d vs %d", d0, d1)
	}
	if s.Stats().QueueDelay != 0 {
		t.Error("unexpected queue delay across distinct modules")
	}
}

func TestFetchAddAtomicityAndBypass(t *testing.T) {
	s := New(basic(2))
	old, _, err := s.FetchAdd(0, 3, 5, 0)
	if err != nil || old != 0 {
		t.Fatalf("faa1 = %d, %v", old, err)
	}
	old, _, err = s.FetchAdd(1, 3, 5, 10)
	if err != nil || old != 5 {
		t.Fatalf("faa2 = %d, %v", old, err)
	}
	if s.words[3] != 10 {
		t.Errorf("mem[3] = %d, want 10", s.words[3])
	}
	if s.Stats().Atomics != 2 {
		t.Errorf("atomics = %d, want 2", s.Stats().Atomics)
	}
}

func TestForcedMissDrift(t *testing.T) {
	cfg := basic(1)
	cfg.MissEveryN = 3
	s := New(cfg)
	now := int64(0)
	misses := 0
	for i := 0; i < 12; i++ {
		_, done, err := s.Read(0, 8, now)
		if err != nil {
			t.Fatal(err)
		}
		if done-now == 10 {
			misses++
		}
		now = done
	}
	// First access is a cold miss; after that every 3rd access is forced.
	if misses < 4 {
		t.Errorf("forced misses = %d, want >= 4", misses)
	}
	if s.Stats().ForcedMiss == 0 {
		t.Error("forced misses not recorded")
	}
}

func TestHotSpots(t *testing.T) {
	s := New(basic(2))
	for i := 0; i < 10; i++ {
		s.Read(0, 5, int64(i*10))
	}
	for i := 0; i < 3; i++ {
		s.Read(0, 9, int64(i*10))
	}
	hs := s.HotSpots(2)
	if len(hs) != 2 || hs[0].Addr != 5 || hs[0].Count != 10 {
		t.Errorf("hot spots = %+v", hs)
	}
	if s.MaxAddrCount() != 10 {
		t.Errorf("max addr count = %d, want 10", s.MaxAddrCount())
	}
}

func TestConfigNormalization(t *testing.T) {
	s := New(Config{}) // everything zero: must not panic, sane defaults
	if s.cfg.Words <= 0 || s.cfg.HitLatency <= 0 || s.cfg.Modules <= 0 {
		t.Errorf("normalized config = %+v", s.cfg)
	}
	if _, _, err := s.Read(0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestValuesSurviveTimingModel: whatever the cache and module timing do,
// the value read is always the last value written (timing-only caches).
func TestValuesSurviveTimingModel(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		cfg := basic(4)
		cfg.MissEveryN = int(seed%5) + 2
		s := New(cfg)
		ref := make(map[int64]int64)
		now := int64(0)
		for i, op := range ops {
			addr := int64(op % 64)
			proc := int(op>>6) % 4
			switch (int(seed) + i) % 3 {
			case 0:
				done, err := s.Write(proc, addr, int64(i), now)
				if err != nil {
					return false
				}
				ref[addr] = int64(i)
				now = done
			case 1:
				v, done, err := s.Read(proc, addr, now)
				if err != nil {
					return false
				}
				if v != ref[addr] {
					return false
				}
				now = done
			case 2:
				old, done, err := s.FetchAdd(proc, addr, 2, now)
				if err != nil {
					return false
				}
				if old != ref[addr] {
					return false
				}
				ref[addr] += 2
				now = done
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCompletionTimesMonotone: for a single processor issuing
// back-to-back accesses, completion times never go backwards.
func TestCompletionTimesMonotone(t *testing.T) {
	f := func(addrs []uint8) bool {
		s := New(basic(1))
		now := int64(0)
		for _, a := range addrs {
			_, done, err := s.Read(0, int64(a)%256, now)
			if err != nil || done < now {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAtomicsInvalidateOtherCaches(t *testing.T) {
	s := New(basic(2))
	now := int64(0)
	_, now, _ = s.Read(0, 8, now)           // P0 caches the line
	_, now, err := s.FetchAdd(1, 8, 1, now) // P1's atomic owns it
	if err != nil {
		t.Fatal(err)
	}
	_, done, _ := s.Read(0, 8, now+5)
	if lat := done - (now + 5); lat != 10 {
		t.Errorf("read after remote atomic latency = %d, want 10 (invalidated)", lat)
	}
}

func TestAtomicsUncachedSystemSafe(t *testing.T) {
	cfg := basic(2)
	cfg.CacheLines = 0
	s := New(cfg)
	if _, _, err := s.FetchAdd(0, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
}
