package core

import (
	"fmt"
	"sync/atomic"
)

// FuzzyBarrier is the runtime (software) form of the fuzzy barrier: a
// split-phase barrier for a fixed group of participants.
//
//	ph := b.Arrive()   // "I have exited the preceding non-barrier region"
//	...                // barrier-region work: runs while others catch up
//	b.Wait(ph)         // "I am about to exit the barrier region"
//
// Arrive never blocks. Wait blocks only if some participant has not yet
// arrived at the same phase — which is exactly the condition under which
// the paper's hardware stalls the processor. Calling Wait immediately
// after Arrive degenerates to a conventional (point) barrier, which is how
// the baselines for experiment E1 are built.
//
// The implementation is a central-counter epoch barrier: an atomic
// arrival counter plus an epoch number. Every participant hammers the one
// counter, so the arrival phase serializes on a single cache line — fine
// on a handful of processors (the paper's Multimax had four), a hot spot
// at larger scale; TreeBarrier is the same contract with combining-tree
// arrivals for large participant counts. The fast path of Wait spins a
// bounded number of times (SpinLimit) before blocking on a condition
// variable; blocking is counted in Stats because the Encore measurement
// attributes the cost of conventional barriers to exactly these
// context-save/restore events (Section 8).
type FuzzyBarrier struct {
	n     int64
	tag   Tag // identity, for multi-barrier setups (Section 5); informational
	count atomic.Int64

	splitCore
}

// runtimeStats counts the Wait outcomes that matter for the Section 8
// measurement; splitCore.snapshot copies the live counters into the
// exported BarrierStats form.
type runtimeStats struct {
	FastWaits atomic.Int64 // Waits satisfied without spinning (already synced)
	SpinWaits atomic.Int64 // Waits satisfied during the spin phase
	LockWaits atomic.Int64 // Waits resolved at the locked recheck, no sleep
	Blocks    atomic.Int64 // Waits that slept on the condvar (the expensive case)
	SpinIters atomic.Int64 // total spin iterations across all Waits

	// waitSpins histograms the spin iterations of each Wait
	// (power-of-four buckets plus an exhausted-budget overflow bucket;
	// see WaitBucketLabel).
	waitSpins [NumWaitBuckets]atomic.Int64
}

// DefaultSpinLimit is the spin budget of Wait before it blocks.
const DefaultSpinLimit = 128

// Phase is the ticket returned by Arrive and consumed by Wait.
type Phase struct {
	epoch int64
}

// NewFuzzyBarrier creates a fuzzy barrier for n participants (n >= 1).
func NewFuzzyBarrier(n int) *FuzzyBarrier {
	if n < 1 {
		panic(fmt.Sprintf("core: fuzzy barrier size %d < 1", n))
	}
	b := &FuzzyBarrier{n: int64(n)}
	b.init()
	return b
}

// NewTaggedFuzzyBarrier creates a fuzzy barrier carrying a logical tag,
// for use with the Section 5 allocator.
func NewTaggedFuzzyBarrier(n int, tag Tag) *FuzzyBarrier {
	b := NewFuzzyBarrier(n)
	b.tag = tag
	return b
}

// N returns the number of participants.
func (b *FuzzyBarrier) N() int { return int(b.n) }

// Tag returns the barrier's logical identity (TagNone if untagged).
func (b *FuzzyBarrier) Tag() Tag { return b.tag }

// arrivals derives the Arrive count: n per completed episode plus the
// arrivals counted toward the episode in progress.
func (b *FuzzyBarrier) arrivals() int64 { return b.Epoch()*b.n + b.count.Load() }

// Stats returns a snapshot of the barrier's counters.
func (b *FuzzyBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *FuzzyBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

// HotspotOps implements ArriveProfiler: every arrival's add and every
// episode's reset land on the single shared counter, so the hottest-word
// traffic is Arrivals + Syncs — n+1 operations per phase, the linear
// hot spot of Section 1.
func (b *FuzzyBarrier) HotspotOps() (ops, phases int64) {
	phases = b.Epoch()
	return b.arrivals() + phases, phases
}

// Arrive signals that the caller is ready to synchronize and returns the
// phase ticket to pass to Wait. It never blocks.
//
// Every participant must call Arrive exactly once per phase, and must call
// Wait before its next Arrive. (The paper's analog: a stream must cross
// barrier k before reaching barrier k+1; violating that is the Figure 2
// invalid-branch bug.)
func (b *FuzzyBarrier) Arrive() Phase {
	e := b.epoch.Load()
	if b.count.Add(1) == b.n {
		// Last arriver completes the episode: reset the counter for the
		// next phase, then publish the new epoch. No participant can
		// arrive for the next phase before the epoch is published,
		// because its Wait for this phase has not returned yet.
		b.count.Store(0)
		b.publish()
	}
	return Phase{epoch: e}
}

// Await is the conventional point barrier: Arrive immediately followed by
// Wait, i.e. a fuzzy barrier with an empty barrier region.
func (b *FuzzyBarrier) Await() {
	b.Wait(b.Arrive())
}
