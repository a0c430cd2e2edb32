package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// These stress tests exist to be run under the race detector
// (`go test -race ./internal/core/...`, see the Makefile verify target):
// every split-phase implementation pushes hundreds of phases through a
// publish-then-read pattern, so any missing happens-before edge between
// the last Arrive and a returning Wait surfaces as a reported race on
// the plain (non-atomic) per-worker slots.

// stressSplit drives n goroutines on the row's barrier through phases
// of: write my slot (plain write), Arrive, barrier-region work, Wait,
// read every slot (plain read). Without the barrier's ordering this is a
// textbook data race. It reports false if the run hung.
func stressSplit(t *testing.T, r contractRow, n, phases int) bool {
	t.Helper()
	b := r.build(r, n)
	slots := make([]int, n) // plain ints: the race detector's bait
	var stale atomic.Int64
	if !runN(t, b.split(), n, func(id int) {
		for p := 0; p < phases; p++ {
			slots[id] = p + 1
			ph := b.Arrive()
			// Barrier-region work: occasionally poll TryWait, as a
			// real region would to schedule more region work.
			for i := 0; i < id%4; i++ {
				b.TryWait(ph)
			}
			b.Wait(ph)
			for j := range slots {
				if slots[j] < p+1 {
					stale.Add(1)
				}
			}
			b.Await() // close the read window before the next phase
		}
	}) {
		return false
	}
	if s := stale.Load(); s > 0 {
		t.Errorf("n=%d: %d stale slot reads (synchronization leaked)", n, s)
	}
	if got := b.Epoch(); got != int64(2*phases) {
		t.Errorf("n=%d: epoch = %d, want %d", n, got, 2*phases)
	}
	return true
}

// TestRaceContractStress pushes every contract row through the
// plain-slot bait at 8 and 13 members: the central counter, the tree
// and reduce combining (reduce's plain Arrive contributes the identity),
// hier's shard subtrees, cross-shard hop and per-shard release fan-out
// (13 members leave shards partial; one shard degenerates to a guarded
// tree) must all give the ordering the central epoch does. TestReduceBarrierConcurrent adds the
// value-carrying path under -race via the verify lane.
func TestRaceContractStress(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		if stressSplit(t, r, 8, 300) {
			stressSplit(t, r, 13, 200)
		}
	})
}

// TestRaceSnapshotDuringRun samples StatsSnapshot and HotspotOps while
// each barrier runs: the derived Syncs and Arrivals read arrival state
// the hot path is writing, so under -race any non-atomic access shows,
// and every sample must be coherent — Syncs monotone, Arrivals within
// one episode plus one in-flight probe overshoot per participant of
// n·Syncs — and exact once the run is over.
func TestRaceSnapshotDuringRun(t *testing.T) {
	const n, episodes = 4, 2000
	for _, row := range contractRows {
		b := row.build(row, n)
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			var last int64
			for {
				s := b.StatsSnapshot()
				if s.Syncs < last {
					t.Errorf("%s: Syncs went back from %d to %d", row.name, last, s.Syncs)
				}
				last = s.Syncs
				if d := s.Arrivals - n*s.Syncs; d < -2*n || d > 2*n {
					t.Errorf("%s: Arrivals = %d at Syncs = %d, more than 2n from n*Syncs", row.name, s.Arrivals, s.Syncs)
				}
				if prof, ok := b.(ArriveProfiler); ok {
					prof.HotspotOps()
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched() // on one P a sampler that never yields starves the run
				}
			}
		}()
		ran := runEpisodes(t, b, n, episodes)
		close(stop)
		<-sampled
		if !ran {
			return
		}
		if s := b.StatsSnapshot(); s.Syncs != episodes || s.Arrivals != n*episodes {
			t.Errorf("%s: at quiescence Syncs = %d, Arrivals = %d, want %d, %d", row.name, s.Syncs, s.Arrivals, episodes, n*episodes)
		}
	}
}
