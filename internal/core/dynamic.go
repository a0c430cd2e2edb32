package core

import "fmt"

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
// It is a Phaser with anonymous SignalWait members, on the same host.
// Arrive signals the open phase, and an arrival that would make its count
// reach the members completes it, so an over-arrival cannot happen: only
// a drained barrier refuses one.
type DynamicBarrier struct{ host }

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
	b.join(1, 0, "dynamic barrier")
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
	b.leave(1, 0)
}

// Await is the point-barrier convenience: Arrive immediately followed by
// Wait.
func (b *DynamicBarrier) Await() {
	b.Wait(b.Arrive())
}
