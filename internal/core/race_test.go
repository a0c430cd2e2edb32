package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// These stress tests exist to be run under the race detector
// (`go test -race ./internal/core/...`, see the Makefile verify target):
// every split-phase implementation pushes hundreds of phases through a
// publish-then-read pattern, so any missing happens-before edge between
// the last Arrive and a returning Wait surfaces as a reported race on
// the plain (non-atomic) per-worker slots.

// stressSplit drives workers through phases of: write my slot (plain
// write), Arrive, barrier-region work, Wait, read every slot (plain
// read). Without the barrier's ordering this is a textbook data race.
func stressSplit(t *testing.T, b SplitBarrier, workers, phases int) {
	t.Helper()
	slots := make([]int, workers) // plain ints: the race detector's bait
	var stale atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
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
		}(w)
	}
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Errorf("%d stale slot reads (synchronization leaked)", n)
	}
	if got := b.Epoch(); got != int64(2*phases) {
		t.Errorf("epoch = %d, want %d", got, 2*phases)
	}
}

func TestRaceFuzzyBarrierStress(t *testing.T) {
	stressSplit(t, NewFuzzyBarrier(8), 8, 300)
}

func TestRaceTreeBarrierStress(t *testing.T) {
	stressSplit(t, NewTreeBarrier(8), 8, 300)
	stressSplit(t, NewTreeBarrierRadix(13, 2), 13, 200)
}

// TestRaceHierBarrierStress pushes the two-level barrier through the
// plain-slot bait: the shard subtrees, the cross-shard combining hop and
// the per-shard release fan-out must together provide the same ordering
// the central epoch does. The second shape forces partial shards and a
// multi-level cross tree; the third pins one shard so the hier barrier
// degenerates to a guarded tree and the fan-out path still runs.
func TestRaceHierBarrierStress(t *testing.T) {
	stressSplit(t, NewHierBarrier(8), 8, 300)
	stressSplit(t, NewHierBarrierConfig(13, HierConfig{Shards: 3, Radix: 2}), 13, 200)
	stressSplit(t, NewHierBarrierConfig(8, HierConfig{Shards: 1}), 8, 200)
}

// TestRaceReduceBarrierStress runs the reduce barrier through the same
// plain-slot bait (Arrive contributes the identity, so the split-phase
// protocol is exercised unchanged); the combining CAS loop and the
// root's result publication must provide the same ordering the plain
// tree does. TestReduceBarrierConcurrent adds the value-carrying path
// under -race via the verify lane.
func TestRaceReduceBarrierStress(t *testing.T) {
	stressSplit(t, NewReduceBarrier(8, OpSum, IdentitySum), 8, 300)
	stressSplit(t, NewReduceBarrierRadix(13, 2, OpMax, IdentityMax), 13, 200)
}

// TestRaceSnapshotDuringRun samples StatsSnapshot and HotspotOps while
// each barrier runs: the derived Syncs and Arrivals read arrival state
// the hot path is writing, so under -race any non-atomic access shows,
// and every sample must be coherent — Syncs monotone, Arrivals within
// one episode plus one in-flight probe overshoot per participant of
// n·Syncs — and exact once the run is over.
func TestRaceSnapshotDuringRun(t *testing.T) {
	const n, episodes = 4, 2000
	for _, row := range sixBarriers(n) {
		b := row.handles[0]
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
		row.run(episodes)
		close(stop)
		<-sampled
		if s := b.StatsSnapshot(); s.Syncs != episodes || s.Arrivals != n*episodes {
			t.Errorf("%s: at quiescence Syncs = %d, Arrivals = %d, want %d, %d", row.name, s.Syncs, s.Arrivals, episodes, n*episodes)
		}
	}
}

// TestRacePhaserChurn stresses Phaser registration against live phases:
// a fixed core of signal+wait members synchronizes for the whole run
// while churners register in signal-only or wait-only mode, ride a few
// boundaries, and leave. Under -race this hammers the counter's banked
// signals, the release loop, and Deregister's retraction of what a
// producer banked — every transition shares the phaser mutex, and a
// leaked edge shows up on the plain per-member counters.
func TestRacePhaserChurn(t *testing.T) {
	const fixed = 4
	const phases = 300
	const churners = 6
	p := NewPhaser()
	perm := make([]*PhaserMember, fixed)
	for i := range perm {
		perm[i] = p.Register(SignalWait)
	}
	var data [fixed + churners]int // plain writes ordered only by the phaser
	var wg sync.WaitGroup
	for w := 0; w < fixed; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := perm[id]
			for k := 0; k < phases; k++ {
				data[id]++
				m.Wait(m.Arrive())
			}
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				if (id+round)%2 == 0 {
					m := p.Register(SignalOnly)
					for k := 0; k < 3+id; k++ {
						data[fixed+id]++
						m.Arrive()
					}
					m.Deregister()
				} else {
					m := p.Register(WaitOnly)
					for k := 0; k < 3+id; k++ {
						ph := m.Arrive()
						if ph.epoch >= phases {
							// The permanents have signaled their last phase;
							// only the drain publishes again, and that waits
							// for this goroutine to exit.
							break
						}
						m.Wait(ph)
						data[fixed+id]++
					}
					m.Deregister()
				}
			}
		}(c)
	}
	wg.Wait()
	for _, m := range perm {
		m.Deregister() // last signaler out drains
	}
	if got := p.Members(); got != 0 {
		t.Errorf("members after drain = %d, want 0", got)
	}
	// The permanents pace the epoch to exactly `phases` (no phase can
	// complete without all of their signals), and the drain adds one.
	if got := p.Epoch(); got != phases+1 {
		t.Errorf("epoch = %d, want %d", got, phases+1)
	}
	var total int
	for _, v := range data {
		total += v
	}
	if total == 0 {
		t.Error("no work recorded")
	}
}

// TestRaceDynamicBarrierChurn stresses DynamicBarrier with membership
// churn: a fixed core of members synchronizes for the whole run while
// transient members register, ride along for a few phases, and leave.
// TestRaceDynamicRegisterDuringCompletion pins the two races fixed by
// serializing DynamicBarrier's transitions under one mutex (host, phaser.go).
// With the earlier CAS-packed state, a stream that Registered and
// Arrived in the gap between the completing arrival's count reset and
// its epoch publication got a ticket naming the *previous* phase: its
// Wait returned immediately, its ArriveAndLeave then double-counted
// into the phase it had really joined, and that phase completed without
// a permanent member's arrival — observable here as a stale slot read
// (and, under -race, as a data race on the slot). The tight
// register/arrive/wait/leave churn below drives that window thousands
// of times per run.
func TestRaceDynamicRegisterDuringCompletion(t *testing.T) {
	const fixed = 2
	const phases = 400
	const churners = 4
	const rounds = 40
	b := NewDynamicBarrier(fixed)
	var slots [fixed]int64
	var stale atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fixed; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := int64(0); p < phases; p++ {
				slots[id] = p + 1
				ph := b.Arrive()
				b.Wait(ph)
				for j := 0; j < fixed; j++ {
					if slots[j] < p+1 {
						stale.Add(1)
					}
				}
				b.Await() // close the read window before the next write
			}
			b.ArriveAndLeave()
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				b.Register()
				ph := b.Arrive()
				b.Wait(ph)
				b.ArriveAndLeave()
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Errorf("%d stale slot reads: a phase completed without every member's arrival", n)
	}
	if got := b.Members(); got != 0 {
		t.Errorf("members after drain = %d, want 0", got)
	}
}

func TestRaceDynamicBarrierChurn(t *testing.T) {
	const fixed = 4
	const phases = 300
	const churners = 6
	b := NewDynamicBarrier(fixed)
	var data [fixed + churners]int // plain writes ordered only by the barrier
	var wg sync.WaitGroup

	for w := 0; w < fixed; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				data[id]++
				ph := b.Arrive()
				b.Wait(ph)
			}
			b.ArriveAndLeave()
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Join, synchronize for a few phases, leave — repeatedly.
			for round := 0; round < 10; round++ {
				b.Register()
				for p := 0; p < 5+id; p++ {
					data[fixed+id]++
					ph := b.Arrive()
					b.Wait(ph)
				}
				b.ArriveAndLeave()
			}
		}(c)
	}
	wg.Wait()
	if got := b.Members(); got != 0 {
		t.Errorf("members after drain = %d, want 0", got)
	}
	if b.Epoch() < phases {
		t.Errorf("epoch = %d, want >= %d", b.Epoch(), phases)
	}
	var total int
	for _, v := range data {
		total += v
	}
	if total == 0 {
		t.Error("no work recorded")
	}
}
