package core

import (
	"fmt"
	"sync"
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
type DynamicBarrier struct {
	// mu serializes every membership/arrival transition *and* the phase
	// publication it may trigger. An earlier implementation CAS-packed
	// (count, members) into one word, but two transitions are
	// fundamentally multi-word and the gaps were real bugs caught by the
	// stress harness (see TestRaceDynamicRegisterDuringCompletion):
	//
	//   - the completing arrival's count reset and the epoch publication
	//     were separate steps, so a stream that Registered and Arrived
	//     in the gap read the previous phase's epoch into its ticket and
	//     its Wait returned before its own phase completed (an early
	//     release, the exact property internal/check verifies for the
	//     cluster protocols);
	//   - Register's drained-barrier check could interleave with the
	//     final ArriveAndLeave's drain transition, making the
	//     join-vs-drain outcome (and the resulting panic) depend on the
	//     interleaving of two non-atomic steps.
	//
	// A mutex makes each transition (including its epoch read or
	// publish) atomic. The lock order is mu -> splitCore.mu, taken
	// only on the publishing path; Wait never holds mu, so the
	// spin-then-block slow path is unchanged. Arrival throughput gives
	// up the lock-free CAS loop, which is the right trade for the
	// membership-churn barrier — the fixed-membership hot paths
	// (FuzzyBarrier, TreeBarrier) remain lock-free.
	mu      sync.Mutex
	count   uint32 // arrivals counted toward the current phase
	members uint32 // current membership; 0 = drained
	arrived int64  // Arrive and ArriveAndLeave calls: membership varies, so BarrierStats.Arrivals cannot be derived

	splitCore
}

// NewDynamicBarrier creates a dynamic barrier with the given initial
// membership (>= 1).
func NewDynamicBarrier(initial int) *DynamicBarrier {
	if initial < 1 {
		panic(fmt.Sprintf("core: dynamic barrier initial membership %d < 1", initial))
	}
	b := &DynamicBarrier{members: uint32(initial)}
	b.init()
	return b
}

// Members returns the current membership.
func (b *DynamicBarrier) Members() int {
	b.mu.Lock()
	m := b.members
	b.mu.Unlock()
	return int(m)
}

func (b *DynamicBarrier) arrivals() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arrived
}

// Stats returns the barrier's counters (same shape as FuzzyBarrier).
func (b *DynamicBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *DynamicBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

// complete publishes a finished phase. Called with mu held, so the
// count reset, the epoch bump and the broadcast are one atomic
// transition as seen by Register/Arrive/ArriveAndLeave.
func (b *DynamicBarrier) complete() {
	b.count = 0
	b.publish()
}

// Register adds one member. The new member has not arrived at the current
// phase, so the phase now requires one more arrival — register from a
// stream that is itself between Wait and Arrive (or before starting), the
// same discipline as allocating a barrier when a stream is spawned.
//
// Registering on a drained barrier (membership reached zero) panics; the
// check and the join are atomic, so racing Register against the final
// ArriveAndLeave either joins before the drain (keeping the barrier
// live) or observes the drained barrier — never a half-applied mix.
func (b *DynamicBarrier) Register() {
	b.mu.Lock()
	if b.members == 0 {
		b.mu.Unlock()
		panic("core: Register on a drained dynamic barrier")
	}
	b.members++
	b.mu.Unlock()
}

// Arrive signals readiness for the current phase and returns the ticket
// for Wait. If this arrival is the last outstanding one, the phase
// completes. The ticket's epoch is read in the same critical section
// that counts the arrival, so it names exactly the phase the arrival
// was counted toward.
func (b *DynamicBarrier) Arrive() Phase {
	b.mu.Lock()
	b.arrived++
	if b.members == 0 || b.count >= b.members {
		c, m := b.count, b.members
		b.mu.Unlock()
		panic(fmt.Sprintf("core: Arrive with %d arrivals of %d members (protocol violation)", c, m))
	}
	e := b.epoch.Load()
	if b.count+1 == b.members {
		b.complete()
	} else {
		b.count++
	}
	b.mu.Unlock()
	return Phase{epoch: e}
}

// ArriveAndLeave deregisters the caller. Its pending arrival obligation
// disappears with it: if everyone else has already arrived, the phase
// completes; if the caller was the last member, the barrier drains. The
// caller must not Wait (it is no longer a member) and must not use the
// barrier again without Register.
func (b *DynamicBarrier) ArriveAndLeave() {
	b.mu.Lock()
	b.arrived++
	switch {
	case b.members == 0:
		b.mu.Unlock()
		panic("core: ArriveAndLeave on a drained dynamic barrier")
	case b.members == 1:
		// Last member out: the barrier is drained.
		b.members = 0
		b.complete()
	case b.count == b.members-1:
		// Everyone else already arrived; our departure completes the
		// phase for them.
		b.members--
		b.complete()
	default:
		b.members--
	}
	b.mu.Unlock()
}

// Await is the point-barrier convenience: Arrive immediately followed by
// Wait.
func (b *DynamicBarrier) Await() {
	b.Wait(b.Arrive())
}
