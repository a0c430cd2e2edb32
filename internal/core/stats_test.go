package core

import (
	"strings"
	"sync"
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

// barrierRow is one runtime barrier as a table row: one stressBarrier
// handle per worker — the barrier itself n times over where participants
// are anonymous, one SignalWait member each for Phaser.
type barrierRow struct {
	name    string
	handles []stressBarrier
}

// sixBarriers builds every runtime barrier for n fixed members.
func sixBarriers(n int) []barrierRow {
	rows := []barrierRow{{name: "phaser"}}
	p := NewPhaser()
	for i := 0; i < n; i++ {
		rows[0].handles = append(rows[0].handles, phaserHandle{p.Register(SignalWait)})
	}
	for _, r := range []struct {
		name string
		b    stressBarrier
	}{
		{"fuzzy", NewFuzzyBarrier(n)},
		{"fuzzy-tree", NewTreeBarrier(n)},
		{"hier", NewHierBarrier(n)},
		{"fuzzy-reduce", NewReduceBarrier(n, OpSum, IdentitySum)},
		{"dynamic", NewDynamicBarrier(n)},
	} {
		row := barrierRow{name: r.name}
		for i := 0; i < n; i++ {
			row.handles = append(row.handles, r.b)
		}
		rows = append(rows, row)
	}
	return rows
}

// run drives every handle through the given number of Arrive+Wait
// episodes, one goroutine per handle, and returns at quiescence.
func (r barrierRow) run(episodes int) {
	var wg sync.WaitGroup
	for _, h := range r.handles {
		wg.Add(1)
		go func(h stressBarrier) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				h.Wait(h.Arrive())
			}
		}(h)
	}
	wg.Wait()
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
		for _, row := range sixBarriers(int(workers)) {
			row.run(episodes)
			impl := row.handles[0]
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
	for _, row := range sixBarriers(1) {
		b := row.handles[0]
		if allocs := testing.AllocsPerRun(1000, func() { b.Wait(b.Arrive()) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on Arrive+Wait, want 0", row.name, allocs)
		}
	}
	// The int64 reduce fast path must stay allocation-free too:
	// contribute-and-read, not just the identity Arrive.
	r := NewReduceBarrier(1, OpMax, IdentityMax)
	if allocs := testing.AllocsPerRun(1000, func() { r.AwaitValue(7) }); allocs != 0 {
		t.Errorf("reduce: %.1f allocs/op on ArriveValue+WaitValue, want 0", allocs)
	}
}

// BenchmarkBarrierHotPathAllocs is the benchmark form of the guarantee —
// run with -benchmem; the allocs/op column must read 0.
func BenchmarkBarrierHotPathAllocs(b *testing.B) {
	for _, name := range []string{"fuzzy", "fuzzy-tree", "hier", "dynamic"} {
		b.Run(name, func(b *testing.B) {
			var bar interface {
				Arrive() Phase
				Wait(Phase)
			}
			switch name {
			case "fuzzy":
				bar = NewFuzzyBarrier(1)
			case "fuzzy-tree":
				bar = NewTreeBarrier(1)
			case "hier":
				bar = NewHierBarrier(1)
			case "dynamic":
				bar = NewDynamicBarrier(1)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bar.Wait(bar.Arrive())
			}
		})
	}
}
