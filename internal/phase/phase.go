// Package phase is the counting state machine of a phaser — the paper's
// Section 5 mask, edited as streams join and leave — under barrierd's
// home shard, its one consumer. It counts signalers, waiters and the
// signals banked per open epoch; identity, and
// which mode signals, stay with the host. Hosts guarantee the stated
// preconditions of Join, Retract and Leave; Signal checks its own, as
// barrierd feeds it counts off the wire. All keep net[e] <= signalers for
// every open epoch e, so Advance never completes one early. A net may go
// negative (at barrierd's home a leave's retraction can overtake the
// leaver's own signal), and the epoch then completes late, when it lands.
package phase

// MaxAhead bounds how far past the open epoch a signal may be banked:
// each banked epoch is one counter, so an unbounded bank is unbounded
// memory. It also bounds barrierd's count messages, whose lists run one
// entry per epoch named: (MaxAhead+2) varints of at most 10 bytes each
// plus the header stay under 65,507 bytes, so the largest arrive, leave or
// combine still fits one UDP datagram.
const MaxAhead = 1 << 12

// Counter is one phaser. The zero value is empty, with open epoch 0.
type Counter struct {
	signalers, waiters int64
	open               int64           // the first epoch not complete
	net                int64           // banked for open
	ahead              map[int64]int64 // banked for epochs past open; absent is 0
	drained            bool
}

// Join registers s signalers and w waiters and returns the open epoch,
// the first they owe or observe. Pre: s, w >= 0. Post: the census grew by
// (s, w) and nothing completed — or, drained, nothing changed and ok is
// false.
func (c *Counter) Join(s, w int64) (open int64, ok bool) {
	if c.drained {
		return c.open, false
	}
	c.signalers += s
	c.waiters += w
	return c.open, true
}

// Signal banks n signals for epoch e. Pre, checked: not drained, n > 0,
// open <= e < open+MaxAhead, net[e]+n <= signalers; a call that fails one
// changes nothing and returns false. Post: net[e] grew by n; completing is
// Advance's.
func (c *Counter) Signal(e, n int64) bool {
	if c.drained || n <= 0 || e < c.open || e-c.open >= MaxAhead || n > c.signalers-c.Net(e) {
		return false
	}
	c.add(e, n)
	return true
}

// Retract takes back n signals that members about to Leave banked for
// epoch e, possibly before they land. Pre: n > 0, open <= e <
// open+MaxAhead. Post: net[e] fell by n, and nothing completed.
func (c *Counter) Retract(e, n int64) { c.add(e, -n) }

func (c *Counter) add(e, n int64) {
	if e == c.open {
		c.net += n
		return
	}
	if c.ahead == nil {
		c.ahead = make(map[int64]int64)
	}
	c.ahead[e] += n
}

// Leave deregisters s signalers and w waiters whose banked signals are
// retracted, and reports whether that drained the counter. Pre: s <=
// signalers, w <= waiters, net[e] <= signalers-s for every open e. Post:
// the census shrank by (s, w); if s > 0 took the last signaler, the banks
// are cleared and the drain is terminal — the host releases everyone, and
// Join and Signal are refused from now on. Otherwise Advance may complete
// what the leavers held back.
func (c *Counter) Leave(s, w int64) (drained bool) {
	c.signalers -= s
	c.waiters -= w
	if s > 0 && c.signalers == 0 {
		c.drained, c.net, c.ahead = true, 0, nil
		return true
	}
	return false
}

// Advance completes epochs in order while every signaler has signaled the
// open one, and returns how many. Pre: none. Post: each completed epoch had
// net == signalers > 0, and the open one is incomplete.
func (c *Counter) Advance() (n int64) {
	for c.signalers > 0 && c.net == c.signalers {
		c.open++
		c.net = c.ahead[c.open]
		delete(c.ahead, c.open)
		n++
	}
	return n
}

// Open returns the open epoch: every epoch before it is complete.
func (c *Counter) Open() int64 { return c.open }

// Net returns the signals banked for epoch e, 0 outside the open ones.
func (c *Counter) Net(e int64) int64 {
	if e == c.open {
		return c.net
	}
	return c.ahead[e]
}

// Signalers returns the number of members that gate epochs.
func (c *Counter) Signalers() int64 { return c.signalers }

// Waiters returns the number of members that only wait.
func (c *Counter) Waiters() int64 { return c.waiters }

// Drained reports whether the last signaler has left.
func (c *Counter) Drained() bool { return c.drained }
