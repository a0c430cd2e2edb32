package core

import (
	"strings"
	"testing"
)

func TestWaitBucket(t *testing.T) {
	cases := []struct {
		iters int64
		want  int
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3},
		{64, 3}, {65, 4}, {256, 4}, {257, 5}, {1 << 20, 5},
	}
	for _, c := range cases {
		if got := waitBucket(c.iters); got != c.want {
			t.Errorf("waitBucket(%d) = %d, want %d", c.iters, got, c.want)
		}
	}
	if WaitBucketLabel(0) != "<=1" || WaitBucketLabel(4) != "<=256" || WaitBucketLabel(5) != ">256" ||
		WaitBucketLabel(6) != "exhausted" {
		t.Errorf("labels = %q %q %q %q",
			WaitBucketLabel(0), WaitBucketLabel(4), WaitBucketLabel(5), WaitBucketLabel(6))
	}
	// The exhausted overflow bucket is reserved for spin-budget
	// exhaustion: no resolved spin count may route into it, however huge.
	if got := waitBucket(1 << 40); got != NumSpinBuckets-1 {
		t.Errorf("waitBucket(1<<40) = %d, want %d (never the exhausted bucket)", got, NumSpinBuckets-1)
	}
}

// runEpisodes drives n goroutines on b through the given number of
// Arrive+Wait episodes each and reports whether they all returned.
func runEpisodes(t *testing.T, b stressBarrier, n, episodes int) bool {
	t.Helper()
	return runN(t, b.split(), n, func(int) {
		for range episodes {
			b.Wait(b.Arrive())
		}
	})
}

// TestStatsSnapshotConsistency drives real multi-goroutine barriers and
// checks the snapshot's internal arithmetic: every Wait lands in exactly
// one outcome counter (fast, spin, lock, block) and exactly one
// histogram bucket, so the histogram covers every Wait; at quiescence
// the derived Syncs and Arrivals are exact. A lone participant's Wait
// always finds its own phase complete, so every one is a fast Wait.
func TestStatsSnapshotConsistency(t *testing.T) {
	const episodes = 2000
	for _, workers := range []int64{1, 4} {
		for _, row := range contractRows {
			impl := row.build(row, int(workers))
			if !runEpisodes(t, impl, int(workers), episodes) {
				return
			}
			s := impl.StatsSnapshot()
			if s.Syncs != episodes || s.Syncs != impl.Epoch() {
				t.Errorf("%s/%d: syncs = %d, epoch = %d, want %d", row.name, workers, s.Syncs, impl.Epoch(), episodes)
			}
			if s.Arrivals != workers*episodes {
				t.Errorf("%s/%d: arrivals = %d, want %d", row.name, workers, s.Arrivals, workers*episodes)
			}
			if got := s.Waits(); got != workers*episodes {
				t.Errorf("%s/%d: fast+spin+block = %d, want %d", row.name, workers, got, workers*episodes)
			}
			if workers == 1 && s.FastWaits != episodes {
				t.Errorf("%s/1: FastWaits = %d, want %d", row.name, s.FastWaits, episodes)
			}
			checkHistogramReconciles(t, s)
			if s.StalledWaits() != s.SpinWaits+s.LockWaits+s.Blocks {
				t.Errorf("%s/%d: StalledWaits = %d", row.name, workers, s.StalledWaits())
			}
			if r := s.BlockRate(); r < 0 || r > 1 {
				t.Errorf("%s/%d: BlockRate = %f", row.name, workers, r)
			}
			// The legacy tuple accessor and the snapshot must agree.
			if st, ok := impl.(interface {
				Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64)
			}); ok {
				syncs, arrivals, fast, spin, blocks, iters := st.Stats()
				if syncs != s.Syncs || arrivals != s.Arrivals || fast != s.FastWaits ||
					spin != s.SpinWaits || blocks != s.Blocks || iters != s.SpinIters {
					t.Errorf("%s/%d: Stats() tuple disagrees with StatsSnapshot()", row.name, workers)
				}
			}
		}
	}
}

func TestBarrierStatsString(t *testing.T) {
	s := BarrierStats{Syncs: 3, Arrivals: 12, FastWaits: 6, SpinWaits: 5, LockWaits: 2, Blocks: 1, SpinIters: 40}
	s.WaitSpins[1] = 5
	s.WaitSpins[NumWaitBuckets-1] = 3
	out := s.String()
	for _, want := range []string{"syncs=3", "arrivals=12", "spin=5", "lock=2", "block=1", "stalled=8", "<=4:5", "exhausted:3"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q: %s", want, out)
		}
	}
	if zero := (BarrierStats{}).String(); strings.Contains(zero, "spin-hist") {
		t.Errorf("empty histogram rendered: %s", zero)
	}
}

// TestBarrierHotPathZeroAllocs pins the allocation-free guarantee: the
// Arrive/Wait hot path allocates nothing, so the always-on counters (and
// the nil-disabled trace hooks upstream) never add GC pressure.
func TestBarrierHotPathZeroAllocs(t *testing.T) {
	for _, row := range contractRows {
		b := row.build(row, 1)
		var allocs, valueAllocs float64
		if !runN(t, b.split(), 1, func(int) {
			allocs = testing.AllocsPerRun(1000, func() { b.Wait(b.Arrive()) })
			// The int64 reduce fast path must stay allocation-free too:
			// contribute-and-read, not just the identity Arrive.
			if r, ok := b.(*ReduceBarrier); ok {
				valueAllocs = testing.AllocsPerRun(1000, func() { r.WaitValue(r.ArriveValue(7)) })
			}
		}) {
			return
		}
		if allocs != 0 || valueAllocs != 0 {
			t.Errorf("%s: %.1f allocs/op on Arrive+Wait, %.1f on ArriveValue+WaitValue, want 0", row.name, allocs, valueAllocs)
		}
	}
}

// BenchmarkBarrierHotPathAllocs is the benchmark form of the guarantee —
// run with -benchmem; the allocs/op column must read 0.
func BenchmarkBarrierHotPathAllocs(b *testing.B) {
	for _, row := range contractRows {
		b.Run(row.name, func(b *testing.B) {
			bar := row.build(row, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bar.Wait(bar.Arrive())
			}
		})
	}
}
