package core

import (
	"fmt"
	"sync"
)

// PhaserMode is a Phaser member's synchronization role.
type PhaserMode int

const (
	// SignalWait members both gate phase advancement and wait on it —
	// ordinary barrier participants.
	SignalWait PhaserMode = iota
	// SignalOnly members (producers) gate phase advancement but never
	// wait: they may run arbitrarily many phases ahead of the group.
	SignalOnly
	// WaitOnly members (consumers) wait on phases but do not gate them:
	// a phase completes without their arrival.
	WaitOnly
)

// String returns the mode's name.
func (m PhaserMode) String() string {
	switch m {
	case SignalWait:
		return "signal-wait"
	case SignalOnly:
		return "signal-only"
	case WaitOnly:
		return "wait-only"
	default:
		return fmt.Sprintf("PhaserMode(%d)", int(m))
	}
}

// Phaser is phaser-style dynamic synchronization (Habanero/X10 lineage;
// "Formalization of Phase Ordering" in PAPERS.md): DynamicBarrier's
// register/deregister membership generalized with per-member modes. A
// phase advances when every *signal-capable* member has signaled it;
// wait-only consumers observe phases without gating them, and
// signal-only producers drive phases without ever blocking — the
// point-to-point ordering a bounded producer/consumer pipeline needs.
// It is the runtime analog of the paper's Section 5 masks: the signaler
// set is the mask of streams the barrier actually waits for, and
// registration edits that mask between phases.
//
// The split-phase (fuzzy) contract is kept: Arrive on a member is
// non-blocking and returns a ticket, Wait(ticket) blocks until the
// ticket's phase completes. For a SignalWait member the ticket names the
// phase its signal gates; for a WaitOnly member it names the next phase
// boundary after the call — "everything signaled from now on is ordered
// after what the producers published before that boundary".
//
// Like DynamicBarrier, one mutex serializes every membership and signal
// transition together with any phase publication it triggers (lock
// order mu -> splitCore.mu); Wait never holds the mutex, so the
// spin-then-block slow path is untouched.
type Phaser struct {
	mu        sync.Mutex
	members   []*PhaserMember
	signalers int   // members with a signal-capable mode
	ready     int   // signalers that have already signaled the current phase
	drained   bool  // the last signaler left; no phase can ever advance again
	arrived   int64 // member Arrive calls: membership varies, so BarrierStats.Arrivals cannot be derived

	splitCore
}

// PhaserMember is one registered participant. Members are not safe for
// concurrent use by multiple goroutines (each goroutine registers its
// own member); the Phaser itself is.
type PhaserMember struct {
	p        *Phaser
	mode     PhaserMode
	signaled int64 // absolute count of phases this member has signaled
	index    int   // position in p.members; -1 after deregistration
}

// NewPhaser creates an empty phaser. Members join with Register; the
// phaser is inert (no phase can complete) until a signal-capable member
// registers.
func NewPhaser() *Phaser {
	p := &Phaser{}
	p.init()
	return p
}

// Register adds a member with the given mode, joined to the current
// phase: it owes its first signal to the phase in progress (if
// signal-capable) and its first Wait observes phases from here on.
// Registering on a drained phaser panics, exactly like DynamicBarrier —
// the check and the join are one atomic transition.
func (p *Phaser) Register(mode PhaserMode) *PhaserMember {
	if mode != SignalWait && mode != SignalOnly && mode != WaitOnly {
		panic(fmt.Sprintf("core: Register with invalid phaser mode %d", int(mode)))
	}
	p.mu.Lock()
	if p.drained {
		p.mu.Unlock()
		panic("core: Register on a drained phaser")
	}
	m := &PhaserMember{p: p, mode: mode, signaled: p.epoch.Load(), index: len(p.members)}
	p.members = append(p.members, m)
	if mode != WaitOnly {
		p.signalers++
	}
	p.mu.Unlock()
	return m
}

// Members returns the current number of registered members.
func (p *Phaser) Members() int {
	p.mu.Lock()
	n := len(p.members)
	p.mu.Unlock()
	return n
}

// Signalers returns the number of signal-capable members.
func (p *Phaser) Signalers() int {
	p.mu.Lock()
	n := p.signalers
	p.mu.Unlock()
	return n
}

func (p *Phaser) arrivals() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arrived
}

// Stats returns the phaser's counters (same shape as FuzzyBarrier).
func (p *Phaser) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return p.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot.
func (p *Phaser) StatsSnapshot() BarrierStats { return p.snapshot(p.arrivals) }

// completeLocked advances phases while every signaler has signaled the
// current one. Called with mu held. A single call can complete several
// phases: a signal-only producer that ran ahead counts toward each new
// phase as soon as it opens.
func (p *Phaser) completeLocked() {
	for p.signalers > 0 && p.ready == p.signalers {
		p.publish()
		e := p.epoch.Load()
		p.ready = 0
		for _, m := range p.members {
			if m.mode != WaitOnly && m.signaled > e {
				p.ready++
			}
		}
	}
}

// Arrive records the member's arrival at its next phase and returns the
// ticket for Wait. It never blocks.
//
// For a signal-capable member the k-th Arrive signals phase k-1 (counting
// from the member's registration epoch) and the ticket names that phase;
// a SignalWait member must Wait between Arrives, while a SignalOnly
// member may Arrive repeatedly, running ahead of the group. For a
// WaitOnly member, Arrive just takes a ticket for the next phase
// boundary and gates nothing.
func (m *PhaserMember) Arrive() Phase {
	p := m.p
	p.mu.Lock()
	p.arrived++
	if m.index < 0 {
		p.mu.Unlock()
		panic("core: Arrive on a deregistered phaser member")
	}
	if p.drained {
		p.mu.Unlock()
		panic("core: Arrive on a drained phaser")
	}
	e := p.epoch.Load()
	if m.mode == WaitOnly {
		p.mu.Unlock()
		return Phase{epoch: e}
	}
	m.signaled++
	ticket := Phase{epoch: m.signaled - 1}
	if m.signaled == e+1 {
		p.ready++
		p.completeLocked()
	}
	p.mu.Unlock()
	return ticket
}

// TryWait reports whether the ticket's phase has completed, without
// blocking.
func (m *PhaserMember) TryWait(ph Phase) bool { return m.p.TryWait(ph) }

// Wait blocks until the ticket's phase completes (spin then block, like
// every split barrier here). Panics for SignalOnly members — a producer
// that waits is a SignalWait member and should register as one.
func (m *PhaserMember) Wait(ph Phase) {
	if m.mode == SignalOnly {
		panic("core: Wait on a signal-only phaser member")
	}
	m.p.Wait(ph)
}

// Mode returns the member's registered mode.
func (m *PhaserMember) Mode() PhaserMode { return m.mode }

// Deregister removes the member. A signaler's pending obligations
// disappear with it — if the remaining signalers have all signaled the
// current phase, the phase (and any the departed member was lagging)
// completes now. When the last signal-capable member leaves, the phaser
// drains: one final phase is published so pending Waits release, and
// any further Register/Arrive panics. The member must not be used after
// Deregister.
func (m *PhaserMember) Deregister() {
	p := m.p
	p.mu.Lock()
	if m.index < 0 {
		p.mu.Unlock()
		panic("core: Deregister on an already deregistered phaser member")
	}
	if p.drained {
		p.mu.Unlock()
		panic("core: Deregister on a drained phaser")
	}
	last := len(p.members) - 1
	p.members[m.index] = p.members[last]
	p.members[m.index].index = m.index
	p.members = p.members[:last]
	m.index = -1
	if m.mode == WaitOnly {
		p.mu.Unlock()
		return
	}
	if m.signaled > p.epoch.Load() {
		p.ready--
	}
	p.signalers--
	if p.signalers == 0 {
		// Drain: no signaler remains, so no phase can ever advance again.
		// Publish one final release episode so tickets already issued do
		// not wait forever.
		p.drained = true
		p.ready = 0
		p.publish()
	} else {
		p.completeLocked()
	}
	p.mu.Unlock()
}
