package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// splitCore is the publish/wait half of a split-phase barrier: an
// atomically readable epoch counter published under a mutex, the
// bounded-spin-then-cond-block slow path of Wait, and the wait-outcome
// counters. The six barriers count arrivals three ways — FuzzyBarrier's
// central counter, the combTree under TreeBarrier, HierBarrier and
// ReduceBarrier, and the phase.Counter under DynamicBarrier and Phaser;
// how a completed phase is published, waited on and accounted is
// identical, so all six embed this one type.
//
// Blocking is counted in runtimeStats because the Encore measurement
// attributes the cost of conventional barriers to exactly these
// context-save/restore events (Section 8).
type splitCore struct {
	epoch atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond

	// SpinLimit bounds the spin phase of Wait before it blocks; 0 means
	// DefaultSpinLimit. It is the one wait-policy knob of the package.
	SpinLimit int

	// The wait counters order nothing — no reader takes a happens-before
	// edge from them — but every Wait writes one, and the epoch above is
	// the word waiters spin on: a full cache line of padding keeps the
	// instrumentation off the line that carries the synchronization.
	_     [64]byte
	waits runtimeStats
}

func (c *splitCore) init() { c.cond = sync.NewCond(&c.mu) }

// publish completes one phase: the epoch advances under the mutex so a
// concurrent blocked waiter cannot miss the broadcast.
func (c *splitCore) publish() {
	c.mu.Lock()
	c.epoch.Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Epoch returns the number of completed synchronization episodes.
func (c *splitCore) Epoch() int64 { return c.epoch.Load() }

// TryWait reports whether synchronization for the given phase has
// occurred, without blocking — the software analog of the hardware's
// "processor is in the barrier region and has synchronized" state.
func (c *splitCore) TryWait(p Phase) bool { return c.epoch.Load() > p.epoch }

// Wait blocks until every participant has arrived at phase p. It spins
// briefly before blocking so that well-balanced regions never pay for a
// context switch.
func (c *splitCore) Wait(p Phase) { c.wait(p, &c.epoch) }

// spinYieldEvery is the yield cadence of the Wait spin loop: every
// spinYieldEvery-th fruitless iteration calls runtime.Gosched, so on a
// host with fewer cores than waiters (the single-core CI box being the
// extreme) the publisher can actually run instead of the waiter burning
// its whole spin budget against a descheduled peer. Must be a power of
// two; the yield itself does not allocate, so the hot path stays
// allocation-free.
const spinYieldEvery = 16

// wait blocks until the ticket's phase completes: fast path if already
// complete, then at most SpinLimit spins, then a condition-variable
// block.
//
// The fast path and the spin loop load `word`: the epoch itself for
// everyone but HierBarrier, which passes its caller's per-shard release
// word so a spinning waiter's reads stay on a line shared only with its
// shard — the local-spin discipline of the classic busy-wait
// literature. The locked slow path rechecks the central epoch under the
// mutex publish() advances it under, so the block path never depends on
// `word` at all: publishers must guarantee only that it reaches the
// target *eventually*, and wait stays correct even if the local word
// lags, never moves, or belongs to a different shard than the caller
// arrived on. The fast path also checks the central epoch, so a Wait
// issued in the window between the central publish and the local
// fan-out still counts as fast instead of burning its spin budget.
//
// Every outcome is recorded in exactly one of FastWaits, SpinWaits,
// LockWaits or Blocks, and in exactly one wait-spin histogram bucket, so
// the histogram total reconciles with the outcome counters (the stress
// harness asserts this). Blocks counts only Waits that really slept on
// the condition variable: a Wait that exhausts its spin budget but finds
// the epoch published at the locked recheck never context-switches, so
// charging it as a block would corrupt the Section 8 measurement — that
// case is LockWaits.
func (c *splitCore) wait(p Phase, word *atomic.Int64) {
	stats := &c.waits
	if word.Load() > p.epoch || c.epoch.Load() > p.epoch {
		stats.FastWaits.Add(1)
		stats.observeSpin(0)
		return
	}
	spinLimit := c.SpinLimit
	if spinLimit <= 0 {
		spinLimit = DefaultSpinLimit
	}
	for i := 0; i < spinLimit; i++ {
		if word.Load() > p.epoch {
			stats.SpinWaits.Add(1)
			stats.SpinIters.Add(int64(i + 1))
			stats.observeSpin(int64(i + 1))
			return
		}
		if i%spinYieldEvery == spinYieldEvery-1 {
			runtime.Gosched()
		}
	}
	stats.SpinIters.Add(int64(spinLimit))
	stats.observeExhausted()
	c.mu.Lock()
	if c.epoch.Load() > p.epoch {
		// The phase completed between the last spin and taking the lock:
		// no sleep, no context switch — not a block.
		c.mu.Unlock()
		stats.LockWaits.Add(1)
		return
	}
	// The recheck ran under the same mutex publish() advances the epoch
	// under, so the phase is still pending and cond.Wait really runs.
	stats.Blocks.Add(1)
	for c.epoch.Load() <= p.epoch {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// snapshot copies the counters into a BarrierStats. Completed episodes
// are the epoch, and arrivals are derived by the embedding barrier from
// state its Arrive already keeps, so neither costs the hot path a
// write. arrivals is re-evaluated until the epoch reads the same before
// and after it, so Arrivals and Syncs always describe the same episode.
func (c *splitCore) snapshot(arrivals func() int64) BarrierStats {
	w := &c.waits
	s := BarrierStats{
		FastWaits: w.FastWaits.Load(),
		SpinWaits: w.SpinWaits.Load(),
		LockWaits: w.LockWaits.Load(),
		Blocks:    w.Blocks.Load(),
		SpinIters: w.SpinIters.Load(),
	}
	for i := range s.WaitSpins {
		s.WaitSpins[i] = w.waitSpins[i].Load()
	}
	for {
		s.Syncs = c.epoch.Load()
		s.Arrivals = arrivals()
		if c.epoch.Load() == s.Syncs {
			return s
		}
	}
}
