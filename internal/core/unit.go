package core

import "fmt"

// State enumerates the four states of the per-processor barrier hardware
// (Section 6): executing non-barrier code; inside a barrier region without
// having synchronized; inside a barrier region having synchronized; and
// stalled, having completed the barrier region before synchronization.
type State int

// Barrier-unit states.
const (
	StateNonBarrier State = iota // (i) executing instructions from a non-barrier region
	StateInBarrier               // (ii) in the barrier region, not yet synchronized
	StateSynced                  // (iii) in the barrier region, synchronized
	StateStalled                 // (iv) completed the barrier region, synchronization pending
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateNonBarrier:
		return "non-barrier"
	case StateInBarrier:
		return "in-barrier"
	case StateSynced:
		return "synced"
	case StateStalled:
		return "stalled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Unit is one processor's copy of the fuzzy-barrier hardware: the state
// machine, the internal register holding the current tag and mask, and the
// broadcast "ready" line. Units are driven by the simulator: the processor
// model calls EnterBarrier / TryCross as it issues instructions, and the
// shared Network evaluates the synchronization condition for all units
// once per cycle, so all processors discover synchronization
// simultaneously — exactly the paper's broadcast scheme.
type Unit struct {
	id    int
	state State
	tag   Tag
	mask  Mask
	ready bool // the broadcast line: raised while ready-to-synchronize

	syncs int64 // barrier synchronizations this unit participated in
}

// NewUnit returns a barrier unit for processor id with an empty (non
// participating) barrier register.
func NewUnit(id int) *Unit {
	return &Unit{id: id, tag: TagNone}
}

// State returns the current state.
func (u *Unit) State() State { return u.state }

// Ready reports the level of the broadcast line.
func (u *Unit) Ready() bool { return u.ready }

// Tag returns the current tag register value.
func (u *Unit) Tag() Tag { return u.tag }

// Syncs returns how many synchronizations this unit has completed.
func (u *Unit) Syncs() int64 { return u.syncs }

// SetBarrier loads the tag and mask register. This models the BARRIER
// instruction — the single overhead instruction needed to initialize a
// barrier, after which processors synchronize repeatedly with no further
// overhead instructions (Section 1). Loading a register mid-region is
// permitted by the hardware; the compiler is responsible for doing it in
// sensible places.
func (u *Unit) SetBarrier(tag Tag, mask Mask) {
	u.tag = tag
	u.mask = mask
}

// EnterBarrier tells the unit that the processor has exited the preceding
// non-barrier region and is ready to synchronize: the ready line is
// raised. If the unit is already in a barrier state, the call is a no-op —
// this is what happens with the Figure 2 invalid branch, where control
// moves directly from one barrier region to another and the line never
// drops, producing a missed synchronization.
func (u *Unit) EnterBarrier() {
	if u.state != StateNonBarrier {
		return
	}
	if u.tag == TagNone {
		// Not participating: barrier-region instructions execute like
		// ordinary code and never stall.
		return
	}
	u.state = StateInBarrier
	u.ready = true
}

// TryCross asks whether the processor may execute a non-barrier
// instruction now. In non-barrier state the answer is trivially yes. If
// the unit has synchronized, crossing succeeds and the state machine
// returns to its start state (no explicit reset — Section 6; the ready
// line was already consumed when synchronization was detected). If
// synchronization has not occurred the processor must stall and the unit
// enters (or stays in) StateStalled.
func (u *Unit) TryCross() bool {
	switch u.state {
	case StateNonBarrier:
		return true
	case StateSynced:
		u.state = StateNonBarrier
		return true
	case StateInBarrier, StateStalled:
		u.state = StateStalled
		return false
	}
	return false
}

// setSynced is called by the Network when the synchronization condition
// holds for this unit. The ready line is consumed (dropped) at detection
// time: all participants fire in the same cycle off the same snapshot, and
// dropping the line here prevents a fast processor that races ahead to the
// *next* barrier from matching a partner's stale line for the previous
// one.
func (u *Unit) setSynced() {
	if u.state == StateInBarrier || u.state == StateStalled {
		u.state = StateSynced
		u.ready = false
		u.syncs++
	}
}

// Network connects the barrier units of all processors. Every cycle the
// simulator calls StepCollect, which evaluates the synchronization condition for
// each unit from the currently broadcast ready lines and tags. Because the
// evaluation uses a snapshot of the lines, all participating units observe
// a synchronization in the same cycle.
type Network struct {
	units []*Unit
}

// NewNetwork creates a network of n barrier units, one per processor.
// n must be in [1, 64] because masks are 64-bit words.
func NewNetwork(n int) *Network {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("core: network size %d out of range [1,64]", n))
	}
	units := make([]*Unit, n)
	for i := range units {
		units[i] = NewUnit(i)
	}
	return &Network{units: units}
}

// Size returns the number of units.
func (n *Network) Size() int { return len(n.units) }

// Unit returns processor i's barrier unit.
func (n *Network) Unit(i int) *Unit { return n.units[i] }

// StepCollect evaluates the synchronization condition for every unit:
//
//	synced(i) ⇔ ready(i) ∧ ∀j ∈ mask(i): ready(j) ∧ tag(j) == tag(i)
//
// and moves units whose condition holds into StateSynced. The condition is
// evaluated for all units against the same snapshot before any state
// changes, mirroring simultaneous hardware detection. The ids of the
// units that synchronized are appended to fired (usually a reused buffer
// sliced to length zero) and returned, so the cycle-level simulator's hot
// path allocates nothing.
func (n *Network) StepCollect(fired []int) []int {
	start := len(fired)
	for _, u := range n.units {
		if !u.ready || (u.state != StateInBarrier && u.state != StateStalled) {
			continue
		}
		if n.conditionHolds(u) {
			fired = append(fired, u.id)
		}
	}
	for _, id := range fired[start:] {
		n.units[id].setSynced()
	}
	return fired
}

func (n *Network) conditionHolds(u *Unit) bool {
	for j, v := range n.units {
		if j == u.id || !u.mask.Has(j) {
			continue
		}
		if !v.ready || v.tag != u.tag {
			return false
		}
	}
	return true
}
