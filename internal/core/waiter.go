package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// splitCore is the publish/wait half of a split-phase barrier: an
// atomically readable epoch counter published under a mutex, the
// spin-then-cond-block slow path of Wait with its learned spin horizon,
// and the wait-outcome counters. The six barriers count arrivals three
// ways — FuzzyBarrier's central counter, the combTree under
// TreeBarrier, HierBarrier and ReduceBarrier, and the phase.Counter
// under DynamicBarrier and Phaser; how a completed phase is published,
// waited on and accounted is identical, so all six embed this one type.
//
// Blocking is counted in runtimeStats because the Encore measurement
// attributes the cost of conventional barriers to exactly these
// context-save/restore events (Section 8).
type splitCore struct {
	epoch atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int   // waiters inside cond.Wait, under mu
	pubNs    int64 // clock at the last publish that found a sleeper, under mu

	// SpinLimit bounds the spin phase of Wait before it blocks; 0 means
	// DefaultSpinLimit, then the learned horizon. The one policy knob.
	SpinLimit int

	// The wait counters and the horizon (ns of spinning after
	// DefaultSpinLimit) and wake cost of learn order nothing, but every
	// Wait writes a counter, and the epoch above is the word waiters
	// spin on: a cache line of padding keeps them off its line.
	_       [64]byte
	waits   runtimeStats
	horizon atomic.Int64
	wake    atomic.Int64
}

func (c *splitCore) init() { c.cond = sync.NewCond(&c.mu) }

// publish completes one phase: the epoch advances under the mutex so a
// concurrent blocked waiter cannot miss the broadcast, which a publish
// sends, stamping pubNs, only when it finds a sleeper.
func (c *splitCore) publish() {
	c.mu.Lock()
	c.epoch.Add(1)
	if c.sleepers > 0 {
		c.pubNs = clock()
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// clock is the wait policy's time in ns, read off the monotonic clock.
func clock() int64 { return int64(time.Since(clockBase)) }

var clockBase = time.Now()

// Epoch returns the number of completed synchronization episodes.
func (c *splitCore) Epoch() int64 { return c.epoch.Load() }

// TryWait reports whether synchronization for the given phase has
// occurred, without blocking — the software analog of the hardware's
// "processor is in the barrier region and has synchronized" state.
func (c *splitCore) TryWait(p Phase) bool { return c.epoch.Load() > p.epoch }

// Wait blocks until every participant has arrived at phase p. It spins
// before blocking, longer where wake-ups have proved dear, so that drift
// between well-balanced participants never pays for a context switch.
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
// complete, then at most SpinLimit spins, then the extension (default
// budget only), then a condition-variable block.
//
// The fast path and the spin loops load `word`: the epoch itself for
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
// The extension spins on at the same cadence until the learned horizon
// has elapsed, reading the clock once per yield; the fast path and the
// first SpinLimit spins read none. A Wait that blocks anyway times one
// more yield, the horizon it needed and its wake-up, for learn. An
// explicit SpinLimit keeps the fixed budget: no extension, no learning.
//
// Every outcome is recorded in exactly one of FastWaits, SpinWaits,
// LockWaits or Blocks, and in exactly one wait-spin histogram bucket, so
// the histogram total reconciles with the outcome counters (the stress
// harness asserts this). A Wait resolved in the extension is a
// SpinWait, bucketed by its total iterations. Blocks counts only Waits
// that really slept on the condition variable: a Wait that exhausts its
// spin budget but finds the epoch published at the locked recheck never
// context-switches, so charging it as a block would corrupt the
// Section 8 measurement — that case is LockWaits.
func (c *splitCore) wait(p Phase, word *atomic.Int64) {
	stats := &c.waits
	if word.Load() > p.epoch || c.epoch.Load() > p.epoch {
		stats.FastWaits.Add(1)
		stats.observeSpin(0)
		return
	}
	spinLimit, learning := c.SpinLimit, c.SpinLimit <= 0
	if learning {
		spinLimit = DefaultSpinLimit
	}
	for i := 0; i < spinLimit; i++ {
		if word.Load() > p.epoch {
			stats.observeSpinWait(int64(i + 1))
			return
		}
		if i%spinYieldEvery == spinYieldEvery-1 {
			runtime.Gosched()
		}
	}
	iters, spent := int64(spinLimit), int64(0)
	if h := c.horizon.Load(); learning && h > 0 {
		for start := clock(); spent < h; spent = clock() - start {
			for range spinYieldEvery {
				iters++
				if word.Load() > p.epoch {
					stats.observeSpinWait(iters)
					return
				}
			}
			runtime.Gosched()
		}
	}
	stats.SpinIters.Add(iters)
	stats.observeExhausted()
	var yield, park int64
	if learning {
		yield = clock()
		runtime.Gosched()
		yield = clock() - yield
	}
	c.mu.Lock()
	if c.epoch.Load() > p.epoch {
		// The phase completed between the last spin and taking the lock:
		// no sleep, no context switch — not a block.
		c.mu.Unlock()
		stats.LockWaits.Add(1)
		return
	}
	// The recheck ran under the same mutex publish() advances the epoch
	// under, so the phase is still pending and cond.Wait really runs;
	// the publish that releases it sees sleepers > 0 and stamps pubNs.
	stats.Blocks.Add(1)
	if learning {
		park = clock()
	}
	c.sleepers++
	for c.epoch.Load() <= p.epoch {
		c.cond.Wait()
	}
	c.sleepers--
	pub := c.pubNs
	c.mu.Unlock()
	if learning {
		h, w := learn(c.horizon.Load(), c.wake.Load(), spent+pub-park, clock()-pub, yield)
		c.horizon.Store(h)
		c.wake.Store(w)
	}
}

// wakeYields is how many yields a wake-up must cost, eight default spin
// phases, before spinning past DefaultSpinLimit pays: below it a block
// wins (it lets the scheduler run a workless pair on one P).
const wakeYields = 8 * DefaultSpinLimit / spinYieldEvery

// learn is the spin-horizon rule, a pure function of the horizon h, the
// wake-up cost w (an EWMA of lat, weight 1/8, seeded by the first
// sample) and one blocked Wait's need (the horizon that would have
// resolved it), lat and yield. A wake-up (w or lat) under wakeYields
// yields resets h; a need within a wake-up made the block the dearer
// choice, so h grows to cover it with a quarter to spare; a longer need
// (a preemption, a long body) halves h. h never exceeds two wake-ups,
// which bounds what spinning on a preempted partner costs.
func learn(h, w, need, lat, yield int64) (int64, int64) {
	if w == 0 {
		w = lat
	} else {
		w += (lat - w) / 8
	}
	switch {
	case min(w, lat) < wakeYields*yield:
		h = 0
	case need <= w:
		h = max(h, need+need/4)
	default:
		h /= 2
	}
	return min(h, 2*w), w
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
