package core

import (
	"fmt"
	"sync"

	"fuzzybarrier/internal/phase"
)

// DynamicBarrier is a split-phase fuzzy barrier whose membership can
// change between (and during) phases: streams may Register to join and
// ArriveAndLeave to depart. It is the runtime analog of Section 5's mask
// manipulation — "disjoint subsets of a group of streams that share the
// same barrier can synchronize by manipulating their masks" — and of the
// paper's dynamically created streams: a spawned stream Registers with
// its parent's barrier, and a finished stream deregisters instead of
// dragging the group's synchronizations forever.
//
// The usual split-phase contract applies per member: Arrive once per
// phase, Wait before the next Arrive. A member that will produce nothing
// further must leave with ArriveAndLeave rather than simply stopping,
// otherwise the remaining members deadlock (exactly like a halted
// processor whose mask bit is still set in the hardware).
//
// Its members are anonymous signalers of one phase.Counter (the census,
// the signals banked per open phase, the drain), and one mutex makes each
// transition on it, with its epoch read or publish, atomic. An earlier
// version CAS-packed (count, members) into one word, and the gaps between
// its multi-word steps released a stream that joined mid-completion early
// (TestRaceDynamicRegisterDuringCompletion). The splitCore epoch is the
// counter's open phase until the drain, which publishes one final episode
// so every ticket releases. Lock order is mu -> splitCore.mu, taken only
// to publish; Wait never holds mu. Arrive signals the open phase, and an
// arrival that would make its count reach the members completes it, so an
// over-arrival cannot happen: only a drained barrier refuses one.
type DynamicBarrier struct {
	mu      sync.Mutex
	c       phase.Counter
	arrived int64 // applied Arrive and ArriveAndLeave calls: membership varies, so BarrierStats.Arrivals cannot be derived

	splitCore
}

// NewDynamicBarrier creates a dynamic barrier with the given initial
// membership (>= 1).
func NewDynamicBarrier(initial int) *DynamicBarrier {
	if initial < 1 {
		panic(fmt.Sprintf("core: dynamic barrier initial membership %d < 1", initial))
	}
	b := &DynamicBarrier{}
	b.init()
	b.c.Join(int64(initial), 0)
	return b
}

// Register adds one member, which owes the current phase an arrival —
// register from a stream that is itself between Wait and Arrive (or
// before starting), as when a spawned stream allocates its barrier.
// Registering on a drained barrier (membership reached zero) panics; the
// check and the join are one transition, so a Register racing the final
// ArriveAndLeave either keeps the barrier live or sees it drained.
func (b *DynamicBarrier) Register() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.c.Join(1, 0); !ok {
		panic("core: Register on a drained dynamic barrier")
	}
}

// Members returns the current number of registered members.
func (b *DynamicBarrier) Members() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.c.Signalers())
}

// Arrive signals readiness for the current phase and returns the ticket
// for Wait. If this arrival is the last outstanding one, the phase
// completes. The ticket's epoch is read in the same critical section
// that counts the arrival, so it names exactly the phase the arrival
// was counted toward.
func (b *DynamicBarrier) Arrive() Phase {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.epoch.Load()
	if !b.c.Signal(e, 1) {
		panic("core: Arrive on a drained dynamic barrier")
	}
	b.arrived++
	b.advance()
	return Phase{epoch: e}
}

// ArriveAndLeave deregisters the caller. Its pending arrival obligation
// disappears with it: if everyone else has already arrived, the phase
// completes; if the caller was the last member, the barrier drains. The
// caller must not Wait (it is no longer a member) and must not use the
// barrier again without Register.
func (b *DynamicBarrier) ArriveAndLeave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c.Drained() {
		panic("core: ArriveAndLeave on a drained dynamic barrier")
	}
	b.arrived++
	if b.c.Leave(1, 0) {
		b.publish()
		return
	}
	b.advance()
}

// advance publishes every phase the counter completes; it runs with mu
// held.
func (b *DynamicBarrier) advance() {
	for n := b.c.Advance(); n > 0; n-- {
		b.publish()
	}
}

// Await is the point-barrier convenience: Arrive immediately followed by
// Wait.
func (b *DynamicBarrier) Await() {
	b.Wait(b.Arrive())
}

// Stats returns the counters (same shape as FuzzyBarrier).
func (b *DynamicBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *DynamicBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

func (b *DynamicBarrier) arrivals() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arrived
}
