package barrierd

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"fuzzybarrier/internal/check"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/phase"
)

// progMember is one member of a phaser program, as both phasers know it:
// the next epoch the counter's host signals for it (what a Conn's table
// keeps) and its refGroup key.
type progMember struct {
	key   refKey
	mode  core.PhaserMode
	next  int64
	epoch int64 // the epoch the member's last arrival signaled, valid when held
	held  bool
}

// mayArrive reports whether the member signals again once its host has
// seen every epoch through released complete: a waiter never does, and a
// signal-wait member must first see its last epoch released.
func (m progMember) mayArrive(released int64) bool {
	return m.mode != core.WaitOnly && !(m.mode == core.SignalWait && m.held && released < m.epoch)
}

// phaserTable is the member side of a phaser program: the members, and the
// refGroup fed each call at the moment a member makes it.
type phaserTable struct {
	members []progMember
	ref     *refGroup
	ids     uint64 // ids handed out: a rejoin gets a fresh one
}

// join adds a member of mode that owes open first, the epoch its JoinOK
// named.
func (p *phaserTable) join(mode core.PhaserMode, open int64) {
	p.ids++
	m := progMember{key: refKey{id: p.ids}, mode: mode, next: open}
	p.members = append(p.members, m)
	p.ref.join(m.key, mode, open)
}

// arrive signals member i's next epoch and returns the count its home
// applies.
func (p *phaserTable) arrive(i int) homeOp {
	m := &p.members[i]
	m.epoch, m.held = m.next, true
	m.next++
	p.ref.arrive(m.key, m.epoch)
	return homeOp{kind: landSignal, e: m.epoch}
}

// leave takes member i out and returns the count its home applies.
func (p *phaserTable) leave(i int) homeOp {
	m := p.members[i]
	p.members = slices.Delete(p.members, i, i+1)
	p.ref.leave(m.key)
	return homeOp{kind: landLeave, mode: m.mode, e: m.next}
}

func (p *phaserTable) signalers() (n int) {
	for _, m := range p.members {
		if m.mode != core.WaitOnly {
			n++
		}
	}
	return n
}

// homeOp kinds.
const (
	landJoin = uint8(iota)
	landSignal
	landLeave
)

// homeOp is one member's count as the home applies it to its counter.
type homeOp struct {
	kind uint8
	mode core.PhaserMode // landJoin, landLeave: the member's mode
	e    int64           // landSignal: the epoch; landLeave: the leaver's next, so it banked [open, e)
}

// land applies op to c the way Shard.handleJoin, handleArrive and
// handleLeave do, and reports whether the counter took it.
func (op homeOp) land(c *phase.Counter) bool {
	var n census
	n.add(uint8(op.mode), 1)
	switch op.kind {
	case landJoin:
		_, ok := c.Join(n.signalers, n.waiters)
		return ok
	case landSignal:
		ok := c.Signal(op.e, 1)
		c.Advance()
		return ok
	}
	for e := c.Open(); e < op.e && n.signalers > 0; e++ {
		c.Retract(e, 1)
	}
	if !c.Leave(n.signalers, n.waiters) {
		c.Advance()
	}
	return true
}

func (op homeOp) String() string {
	switch op.kind {
	case landJoin:
		return fmt.Sprintf("join %s", op.mode)
	case landSignal:
		return fmt.Sprintf("signal epoch %d", op.e)
	}
	return fmt.Sprintf("leave %s, banked below epoch %d", op.mode, op.e)
}

// phaserProgram runs one seeded random program of register / signal /
// leave through phase.Counter (driven the way barrierd's home drives it)
// and the id-level refGroup, ends it with the drain, and fails t unless
// both agree after every step. It returns the last epoch the program
// completed.
func phaserProgram(t *testing.T, seed uint64, steps int) int64 {
	rng := des.NewRNG(seed)
	var c phase.Counter
	p := phaserTable{ref: newRefGroup()}
	ref, everSignaler := p.ref, false
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s\ncounter %+v, reference epoch %d released %d",
			seed, step, fmt.Sprintf(format, args...), c, ref.epoch, ref.released)
	}
	land := func(step int, op homeOp) {
		t.Helper()
		if !op.land(&c) {
			fail(step, "counter refused %s", op)
		}
	}
	check := func(step int) {
		t.Helper()
		if c.Drained() != (ref.released == DrainEpoch) {
			fail(step, "drained: counter %v, reference %v", c.Drained(), ref.released == DrainEpoch)
		}
		if !c.Drained() && ref.released != c.Open()-1 {
			fail(step, "released: counter %d, reference %d", c.Open()-1, ref.released)
		}
		if c.Signalers() != int64(ref.signalers) || c.Signalers()+c.Waiters() != int64(len(ref.mem)) ||
			len(ref.mem) != len(p.members) {
			fail(step, "census: counter %d/%d, reference %d/%d", c.Signalers(), c.Signalers()+c.Waiters(), ref.signalers, len(ref.mem))
		}
		for e := c.Open(); e < c.Open()+4 && !c.Drained(); e++ {
			if c.Net(e) != int64(ref.futureReady[e]) {
				fail(step, "epoch %d: counter banks %d signals, reference %d", e, c.Net(e), ref.futureReady[e])
			}
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(10); {
		case op < 2 && len(p.members) < 8: // register
			mode := core.PhaserMode(rng.IntN(3))
			land(step, homeOp{kind: landJoin, mode: mode})
			p.join(mode, c.Open())
			everSignaler = everSignaler || mode != core.WaitOnly
		case op < 4 && len(p.members) > 0: // leave, but not the last signaler before the drain
			if i := int(rng.IntN(int64(len(p.members)))); p.members[i].mode == core.WaitOnly || p.signalers() > 1 {
				land(step, p.leave(i))
			}
		case len(p.members) > 0: // arrive
			i := int(rng.IntN(int64(len(p.members))))
			if !p.members[i].mayArrive(c.Open() - 1) {
				break
			}
			ahead := int64(0)
			if p.members[i].mode == core.SignalOnly {
				ahead = rng.IntN(3) // a producer may bank epochs ahead
			}
			for j := int64(0); j <= ahead; j++ {
				land(step, p.arrive(i))
			}
		}
		check(step)
	}
	// The drain: members leave in random order until the last signaler has.
	last := c.Open() - 1
	for p.signalers() > 0 {
		land(steps, p.leave(int(rng.IntN(int64(len(p.members))))))
		check(steps)
	}
	if c.Drained() != everSignaler {
		t.Fatalf("seed %d: drained %v after the last signaler left: %+v", seed, c.Drained(), c)
	}
	if _, ok := c.Join(1, 0); c.Drained() && (ok || c.Signal(c.Open(), 1) || c.Advance() != 0) {
		t.Fatalf("seed %d: a drained counter moved: %+v", seed, c)
	}
	return last
}

// TestCounterAndIDOracleAgree holds the one counting phaser against the
// other phaser in the repo — refGroup, which keeps one record per member —
// over 100 seeded programs of 60 register / signal / leave steps in all
// three modes, each ending with the drain, at the sizes TestCounterWalk
// does not reach: up to eight members, and runs of tens of epochs. After
// every step the two agree on the released epoch, the census and the
// signals banked for the next four epochs. Together the programs complete
// 1,917 epochs, one of them epochs 0 through 59, with producers banking up
// to three epochs ahead and leaves that retract what they banked.
func TestCounterAndIDOracleAgree(t *testing.T) {
	const programs, steps = 100, 60
	var most, total int64
	for seed := uint64(1); seed <= programs; seed++ {
		last := phaserProgram(t, seed, steps)
		most, total = max(most, last), total+last+1
	}
	t.Logf("%d programs completed %d epochs, at most %d in one", programs, total, most+1)
	if most < 40 || total < 1667 {
		t.Fatalf("the programs completed too little: %d epochs, at most %d in one", total, most+1)
	}
}

// phaserWalk is the exhaustive model of phase.Counter under barrierd's
// home, a check.Model: at most members members at a time and joins ids in
// all, in all three modes, signaling epochs below epochs. A member's signal
// and its leave travel to the home as counts, which the home applies in any
// order — so a leave's retraction can land before the leaver's own signal
// and drive a net negative — while refGroup is fed each call when the
// member makes it. A join lands at once: a member signals only after its
// JoinOK, so a join can overtake a signal still in flight, and the joiner
// then owes an epoch the reference released without it. After a join or a
// landing the walk checks that the counter released nothing the reference
// has not, never moved back, kept net[e] <= signalers for every open e and
// refused a signal past that, and that a drain is terminal. With nothing in
// flight and no signaler owing an epoch the reference released, the
// release, the census and the banks must equal the reference's.
type phaserWalk struct{ members, epochs, joins int }

// walkState is one vertex of the walk. The counter is never changed once
// it is a state's: a successor replays landed into a fresh one.
type walkState struct {
	phaserTable
	landed []homeOp // what the home applied, in order
	flight []homeOp // sent and not yet applied
	c      *phase.Counter
}

// walk actions.
const (
	walkJoin = uint8(iota)
	walkArrive
	walkLeave
	walkLand
)

type walkAct struct {
	kind uint8
	i    int    // walkArrive, walkLeave: the member; walkLand: the flight entry
	id   uint64 // walkArrive, walkLeave: the member's id, for the trace
	op   homeOp // walkJoin, walkLand: the count the home applies
}

func (w phaserWalk) Initial() (*walkState, error) {
	return &walkState{phaserTable: phaserTable{ref: newRefGroup()}, c: new(phase.Counter)}, nil
}

// Done is a final state: every member left, every count landed, and no
// join can come.
func (w phaserWalk) Done(s *walkState) bool {
	return len(s.members) == 0 && len(s.flight) == 0 && (int(s.ids) == w.joins || s.ref.released == DrainEpoch)
}

func (w phaserWalk) Enabled(s *walkState, buf []walkAct) []walkAct {
	if int(s.ids) < w.joins && len(s.members) < w.members && s.ref.released != DrainEpoch {
		for mode := range core.WaitOnly + 1 {
			buf = append(buf, walkAct{kind: walkJoin, op: homeOp{kind: landJoin, mode: mode}})
		}
	}
	for i, m := range s.members {
		// Members that differ only in id lead to the same states.
		if slices.ContainsFunc(s.members[:i], func(o progMember) bool { o.key = m.key; return o == m }) {
			continue
		}
		if m.mayArrive(s.c.Open()-1) && m.next < int64(w.epochs) {
			buf = append(buf, walkAct{kind: walkArrive, i: i, id: m.key.id})
		}
		buf = append(buf, walkAct{kind: walkLeave, i: i, id: m.key.id})
	}
	for j, op := range s.flight {
		if !slices.Contains(s.flight[:j], op) {
			buf = append(buf, walkAct{kind: walkLand, i: j, op: op})
		}
	}
	return buf
}

func (w phaserWalk) Apply(s *walkState, a walkAct) (*walkState, *check.Violation) {
	ns := &walkState{phaserTable: s.phaserTable, landed: s.landed, flight: slices.Clone(s.flight), c: s.c}
	if a.kind != walkLand {
		ns.members, ns.ref = slices.Clone(s.members), s.ref.clone()
	}
	switch a.kind {
	case walkArrive:
		ns.flight = append(ns.flight, ns.arrive(a.i))
		return ns, nil
	case walkLeave:
		ns.flight = append(ns.flight, ns.leave(a.i))
		return ns, nil
	case walkLand:
		ns.flight = slices.Delete(ns.flight, a.i, a.i+1)
	}
	ns.c = new(phase.Counter)
	for _, op := range s.landed {
		op.land(ns.c)
	}
	ok := a.op.land(ns.c)
	ns.landed = append(slices.Clip(s.landed), a.op)
	if a.kind == walkJoin && ok {
		ns.join(a.op.mode, ns.c.Open())
	}
	return ns, w.verify(s.c, ns, a.op, ok)
}

// verify checks the walk's properties after op landed on prev, giving s.
func (w phaserWalk) verify(prev *phase.Counter, s *walkState, op homeOp, ok bool) *check.Violation {
	c, ref := s.c, s.ref
	fail := func(property, format string, args ...any) *check.Violation {
		return &check.Violation{Property: property, Detail: fmt.Sprintf(format, args...) +
			fmt.Sprintf("; counter %+v, reference epoch %d released %d", *c, ref.epoch, ref.released)}
	}
	drained, refDrained := c.Drained(), ref.released == DrainEpoch
	switch {
	case op.kind == landSignal && prev.Drained() && ok:
		return fail("drain-terminal", "%s: a drained counter took it", op)
	case !ok && !(op.kind == landSignal && prev.Drained()):
		return fail("refused", "%s: the counter refused it", op)
	case c.Open() < prev.Open() || prev.Drained() && !drained:
		return fail("monotone", "%s: open %d → %d, drained %v → %v", op, prev.Open(), c.Open(), prev.Drained(), drained)
	case drained && !refDrained || !drained && c.Open()-1 > ref.released:
		return fail("early-release", "%s: counter released through %d, drained %v", op, c.Open()-1, drained)
	// The probes below change a counter only by taking what it must refuse.
	case drained && !prev.Drained():
		if _, ok := c.Join(1, 0); ok || c.Signal(c.Open(), 1) || c.Advance() != 0 {
			return fail("drain-terminal", "a drained counter moved")
		}
	case c.Signalers() > 0 && c.Signal(c.Open(), c.Signalers()-c.Net(c.Open())+1):
		return fail("net-bound", "%s: counter took a signal past its %d signalers", op, c.Signalers())
	}
	for e := c.Open(); e <= int64(w.epochs) && !drained; e++ {
		if c.Net(e) > c.Signalers() {
			return fail("net-bound", "epoch %d: %d banked for %d signalers", e, c.Net(e), c.Signalers())
		}
	}
	if len(s.flight) > 0 || slices.ContainsFunc(s.members, func(m progMember) bool {
		return m.mode != core.WaitOnly && m.next <= ref.released // its join overtook a signal
	}) {
		return nil
	}
	switch {
	case drained != refDrained || !drained && c.Open()-1 != ref.released:
		return fail("quiescent", "released: counter %d, drained %v", c.Open()-1, drained)
	case c.Signalers() != int64(ref.signalers) || c.Signalers()+c.Waiters() != int64(len(ref.mem)):
		return fail("quiescent", "census: counter %d/%d, reference %d/%d", c.Signalers(), c.Signalers()+c.Waiters(), ref.signalers, len(ref.mem))
	}
	for e := c.Open(); e <= int64(w.epochs) && !drained; e++ {
		if c.Net(e) != int64(ref.futureReady[e]) {
			return fail("quiescent", "epoch %d: counter banks %d signals, reference %d", e, c.Net(e), ref.futureReady[e])
		}
	}
	return nil
}

// Key encodes what decides a state's future: the counter, the reference
// from its open epoch on, the members and the counts in flight, the last
// two without ids or order.
func (w phaserWalk) Key(s *walkState, buf []byte) []byte {
	c, ref := s.c, s.ref
	for _, v := range []int64{c.Open(), c.Signalers(), c.Waiters(), int64(s.ids), ref.epoch, ref.released, int64(ref.signalers)} {
		buf = binary.AppendVarint(buf, v)
	}
	if c.Drained() {
		buf = append(buf, 'd')
	}
	for e := c.Open(); e <= int64(w.epochs); e++ {
		buf = binary.AppendVarint(buf, c.Net(e))
	}
	for e := ref.epoch; e <= int64(w.epochs); e++ {
		buf = binary.AppendVarint(buf, int64(ref.futureReady[e]))
	}
	// One word per member and per count in flight, sorted: every value
	// is below the epoch bound.
	var words [16]uint32
	rows := words[:0]
	for _, m := range s.members {
		held := uint32(0)
		if m.held {
			held = 1
		}
		rows = append(rows, uint32(1+m.mode)<<24|uint32(m.next)<<16|uint32(m.epoch)<<8|held)
	}
	for _, op := range s.flight {
		rows = append(rows, uint32(8+op.kind)<<24|uint32(op.mode)<<16|uint32(op.e)<<8)
	}
	slices.Sort(rows)
	for _, r := range rows {
		buf = binary.BigEndian.AppendUint32(buf, r)
	}
	return buf
}

func (w phaserWalk) Stuck(s *walkState) string {
	return fmt.Sprintf("%d members, %d counts in flight, counter %+v", len(s.members), len(s.flight), *s.c)
}

func (w phaserWalk) Describe(a walkAct) string {
	switch a.kind {
	case walkJoin:
		return fmt.Sprintf("a member joins %s", a.op.mode)
	case walkArrive:
		return fmt.Sprintf("member %d arrives", a.id)
	case walkLeave:
		return fmt.Sprintf("member %d leaves", a.id)
	}
	return "the home applies: " + a.op.String()
}

// clone deep-copies r, but for parked: the walk parks nothing.
func (r *refGroup) clone() *refGroup {
	n := *r
	n.mem = make(map[refKey]*refMember, len(r.mem))
	for k, m := range r.mem {
		c := *m
		n.mem[k] = &c
	}
	n.futureReady = maps.Clone(r.futureReady)
	return &n
}

// TestCounterWalk walks every state phaserWalk reaches, the counts landing
// at the home in every order: three members in any modes over three
// epochs; two over three epochs with a rejoin under a fresh id; and four
// over two epochs.
func TestCounterWalk(t *testing.T) {
	for _, w := range []phaserWalk{
		{members: 3, epochs: 3, joins: 3},
		{members: 2, epochs: 3, joins: 3},
		{members: 4, epochs: 2, joins: 4},
	} {
		res, err := check.Explore(w, 1<<20, 64)
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		if res.Violation != nil {
			t.Fatalf("%+v: %s", w, res.Violation)
		}
		t.Logf("%d members, %d epochs, %d joins: %d states, %d transitions, depth %d",
			w.members, w.epochs, w.joins, res.States, res.Transitions, res.Depth)
	}
}
