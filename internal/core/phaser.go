package core

import (
	"fmt"
	"sync"

	"fuzzybarrier/internal/phase"
)

// PhaserMode is a Phaser member's synchronization role.
type PhaserMode int

const (
	// SignalWait members both gate phase advancement and wait on it —
	// ordinary barrier participants.
	SignalWait PhaserMode = iota
	// SignalOnly members (producers) gate phase advancement but never
	// wait: they may run up to phase.MaxAhead phases ahead of the group.
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

// census returns the signalers and waiters one member of mode m counts as.
func (m PhaserMode) census() (signalers, waiters int64) {
	if m < SignalWait || m > WaitOnly {
		panic(fmt.Sprintf("core: Register with invalid phaser mode %d", int(m)))
	}
	if m == WaitOnly {
		return 0, 1
	}
	return 1, 0
}

// host is what Phaser and DynamicBarrier share: one phase.Counter (the
// census, the signals banked per open phase, the drain) and one mutex
// that makes each transition on it, with its epoch read or publish,
// atomic. An earlier DynamicBarrier CAS-packed (count, members) into one
// word, and the gaps between its multi-word steps released a stream that
// joined mid-completion early (TestRaceDynamicRegisterDuringCompletion).
// The splitCore epoch is the counter's open phase until the drain, which
// publishes one final episode so every ticket releases. Lock order is
// mu -> splitCore.mu, taken only to publish; Wait never holds mu.
type host struct {
	mu      sync.Mutex
	c       phase.Counter
	arrived int64 // applied Arrive and ArriveAndLeave calls: membership varies, so BarrierStats.Arrivals cannot be derived

	splitCore
}

// Members returns the current number of registered members.
func (h *host) Members() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.c.Signalers() + h.c.Waiters())
}

func (h *host) arrivals() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.arrived
}

// Stats returns the counters (same shape as FuzzyBarrier).
func (h *host) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return h.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (h *host) StatsSnapshot() BarrierStats { return h.snapshot(h.arrivals) }

// join registers a member and returns the phase it owes first; joining a
// drained barrier panics. The three helpers run with mu held.
func (h *host) join(signalers, waiters int64, what string) int64 {
	open, ok := h.c.Join(signalers, waiters)
	if !ok {
		panic("core: Register on a drained " + what)
	}
	return open
}

// advance publishes every phase the counter completes.
func (h *host) advance() {
	for n := h.c.Advance(); n > 0; n-- {
		h.publish()
	}
}

// leave deregisters members whose banked signals are retracted: the
// phases they held back complete, or the last signaler out drains.
func (h *host) leave(signalers, waiters int64) {
	if h.c.Leave(signalers, waiters) {
		h.publish()
		return
	}
	h.advance()
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
// after what the producers published before that boundary". A member
// keeps only the next phase it signals; the counting is the host's, so a
// phase completes in O(1), never a scan of the members.
type Phaser struct{ host }

// PhaserMember is one registered participant. Members are not safe for
// concurrent use by multiple goroutines (each goroutine registers its
// own member); the Phaser itself is.
type PhaserMember struct {
	p    *Phaser
	mode PhaserMode
	next int64 // the next phase this member signals; -1 after Deregister
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
	s, w := mode.census()
	p.mu.Lock()
	defer p.mu.Unlock()
	return &PhaserMember{p: p, mode: mode, next: p.join(s, w, "phaser")}
}

// Signalers returns the number of signal-capable members.
func (p *Phaser) Signalers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.c.Signalers())
}

// Arrive records the member's arrival at its next phase and returns the
// ticket for Wait. It never blocks.
//
// For a signal-capable member the k-th Arrive signals phase k-1 (counting
// from the member's registration epoch) and the ticket names that phase;
// a SignalWait member must Wait between Arrives, while a SignalOnly
// member may Arrive repeatedly, running up to phase.MaxAhead phases ahead
// of the group. For a WaitOnly member, Arrive just takes a ticket for the
// next phase boundary and gates nothing.
func (m *PhaserMember) Arrive() Phase {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.epoch.Load()
	switch {
	case m.next < 0:
		panic("core: Arrive on a deregistered phaser member")
	case p.c.Drained():
		panic("core: Arrive on a drained phaser")
	case m.mode != WaitOnly:
		if !p.c.Signal(m.next, 1) {
			panic(fmt.Sprintf("core: Arrive more than %d phases ahead of the phaser", phase.MaxAhead))
		}
		e = m.next
		m.next++
		p.advance()
	}
	p.arrived++
	return Phase{epoch: e}
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

// Deregister removes the member. A signaler's banked signals are
// retracted and its pending obligations disappear with it — if the
// remaining signalers have all signaled the current phase, the phase
// (and any the departed member was lagging) completes now. When the last
// signal-capable member leaves, the phaser drains: one final phase is
// published so pending Waits release, and any further Register/Arrive
// panics. The member must not be used after Deregister.
func (m *PhaserMember) Deregister() {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case m.next < 0:
		panic("core: Deregister on an already deregistered phaser member")
	case p.c.Drained():
		panic("core: Deregister on a drained phaser")
	}
	for e := p.c.Open(); e < m.next; e++ { // none for a waiter: its next is its first phase
		p.c.Retract(e, 1)
	}
	m.next = -1
	p.leave(m.mode.census())
}
