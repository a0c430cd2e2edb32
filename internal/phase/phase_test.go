package phase

import (
	"fmt"
	"testing"
)

// TestRejectedSignalChangesNothing: every Signal that breaks its checked
// precondition returns false and leaves the whole state as it was, on a
// counter with an open epoch, a banked one ahead, and a negative net.
func TestRejectedSignalChangesNothing(t *testing.T) {
	var c Counter
	c.Join(3, 1)
	c.Signal(0, 3)
	c.Advance() // open is 1
	c.Signal(1, 2)
	c.Signal(4, 3)
	c.Retract(5, 1)
	var empty, waitersOnly, drained Counter
	waitersOnly.Join(0, 2)
	drained.Join(1, 0)
	drained.Leave(1, 0)
	for _, tc := range []struct {
		name string
		c    *Counter
		e, n int64
	}{
		{"a completed epoch", &c, 0, 1},
		{"the first epoch past the window", &c, 1 + MaxAhead, 1},
		{"far past the window", &c, 1 << 62, 1},
		{"an epoch below zero", &c, -1, 1},
		{"no signal", &c, 2, 0},
		{"a negative signal", &c, 2, -1},
		{"more than the signalers at the open epoch", &c, 1, 2},
		{"more than the signalers ahead", &c, 4, 1},
		{"a count that would overflow", &c, 2, 1<<63 - 1},
		{"into a negative net, past what the signalers can fill", &c, 5, 5},
		{"with no member", &empty, 0, 1},
		{"with only waiters", &waitersOnly, 0, 1},
		{"on a drained counter", &drained, drained.Open(), 1},
	} {
		before := fmt.Sprintf("%+v", *tc.c)
		if tc.c.Signal(tc.e, tc.n) {
			t.Errorf("%s: Signal(%d, %d) accepted", tc.name, tc.e, tc.n)
		}
		if after := fmt.Sprintf("%+v", *tc.c); after != before {
			t.Errorf("%s: state changed: %s -> %s", tc.name, before, after)
		}
	}
	// The bounds themselves are accepted.
	if !c.Signal(MaxAhead, 3) || !c.Signal(5, 4) || !c.Signal(1, 1) {
		t.Fatalf("a signal at the edge of a bound was refused: %+v", c)
	}
}

// TestOvertakingRetractCompletesLateNeverEarly: at barrierd's home a
// leave can land before the leaver's own signal. The net goes negative,
// the remaining signaler's signal does not complete the epoch, and the
// leaver's late signal does.
func TestOvertakingRetractCompletesLateNeverEarly(t *testing.T) {
	var c Counter
	c.Join(2, 0) // a and b
	c.Retract(0, 1)
	if c.Leave(1, 0) { // a leaves; its signal for epoch 0 is still in flight
		t.Fatal("drained with a signaler left")
	}
	if c.Net(0) != -1 || c.Advance() != 0 {
		t.Fatalf("after the overtaking leave: %+v", c)
	}
	if !c.Signal(0, 1) || c.Advance() != 0 { // b
		t.Fatalf("completed early on b's signal alone: %+v", c)
	}
	if !c.Signal(0, 1) || c.Advance() != 1 || c.Open() != 1 { // a's, landing last
		t.Fatalf("did not complete when a's signal landed: %+v", c)
	}
}

// TestAdvanceSpendsTheBank: signals banked ahead count toward each epoch
// as it opens, so one Advance completes every epoch they fill.
func TestAdvanceSpendsTheBank(t *testing.T) {
	var c Counter
	open, _ := c.Join(2, 0)
	for e := open; e < 3; e++ {
		c.Signal(e, 1) // a producer three epochs ahead
	}
	if c.Advance() != 0 {
		t.Fatal("completed without the second signaler")
	}
	c.Signal(0, 1)
	c.Signal(1, 1)
	if n := c.Advance(); n != 2 || c.Open() != 2 || c.Net(2) != 1 {
		t.Fatalf("Advance = %d: %+v", n, c)
	}
	// A leave that retracts what it banked lets the other complete alone.
	c.Retract(2, 1)
	c.Leave(1, 0)
	c.Signal(2, 1)
	if n := c.Advance(); n != 1 || c.Net(3) != 0 {
		t.Fatalf("Advance = %d: %+v", n, c)
	}
}

// TestDrainIsTerminal: the last signaler's leave drains the counter and
// clears its bank, here the negative net its overtaking retraction left.
// From then on joins and signals are refused, nothing completes, and the
// waiters that remain may still leave without undoing the drain.
func TestDrainIsTerminal(t *testing.T) {
	var c Counter
	c.Join(1, 2)
	if c.Leave(0, 1) || c.Drained() {
		t.Fatal("a waiter's leave drained the counter")
	}
	c.Retract(1, 1) // the signal it takes back is still in flight
	if !c.Leave(1, 0) || !c.Drained() {
		t.Fatalf("the last signaler's leave did not drain: %+v", c)
	}
	if c.Net(0) != 0 || c.Net(1) != 0 {
		t.Fatalf("a drained counter kept its bank: %+v", c)
	}
	if _, ok := c.Join(1, 0); ok {
		t.Fatal("a drained counter took a join")
	}
	if c.Signal(c.Open(), 1) || c.Advance() != 0 {
		t.Fatal("a drained counter moved")
	}
	if c.Leave(0, 1) || !c.Drained() || c.Waiters() != 0 || c.Signalers() != 0 {
		t.Fatalf("the last waiter's leave: %+v", c)
	}
}
