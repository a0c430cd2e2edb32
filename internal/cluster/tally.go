package cluster

import (
	"fmt"
	"slices"
)

// tally is the arrival count of a node that gathers arrivals: the
// central coordinator (one slot per node) and every tree node (slot 0 =
// self, slot j = its j-th child). A node accumulates at most one epoch
// at a time — a sender can arrive at e only after releasing e-1 — so the
// state is a fixed slot-stamp array instead of per-epoch maps: seen[slot]
// == e marks slot's distinct arrival for e, which makes a duplicate
// ARRIVE idempotent without allocating on the receive path.
type tally struct {
	seen  []int64 // the last epoch each slot's arrival was counted for (-1 initially)
	count int     // distinct arrivals for epoch
	epoch int64   // the accumulating epoch (-1 when none)
}

func newTally(slots int) tally {
	t := tally{seen: make([]int64, slots), epoch: -1}
	for i := range t.seen {
		t.seen[i] = -1
	}
	return t
}

// add counts slot's arrival for epoch e and returns the distinct
// arrivals for e so far, or 0 when the arrival is a stale retransmission
// (e below released, the node's ReleasedThrough) or a duplicate.
func (t *tally) add(slot int, e, released int64) int {
	if e < released {
		return 0
	}
	if e != t.epoch {
		t.epoch = e
		t.count = 0
	}
	if t.seen[slot] == e {
		return 0
	}
	t.seen[slot] = e
	t.count++
	return t.count
}

// done ends the accumulating epoch; seen keeps its stamps, so a late
// duplicate stays idempotent until the release guard classifies it.
func (t *tally) done() { t.epoch, t.count = -1, 0 }

// pending renders the accumulating epoch for a stuck report as
// " e=epoch:count/need", or "" when none is accumulating.
func (t *tally) pending(need int) string {
	if t.epoch < 0 {
		return ""
	}
	return fmt.Sprintf(" e=%d:%d/%d", t.epoch, t.count, need)
}

func (t *tally) clone() tally {
	return tally{seen: slices.Clone(t.seen), count: t.count, epoch: t.epoch}
}

// AppendState implements Proto.AppendState for the protocols that embed
// a tally: the rest of their state is fixed at construction.
func (t *tally) AppendState(buf []byte) []byte {
	buf = appendState64(buf, int64(t.count))
	buf = appendState64(buf, t.epoch)
	for _, e := range t.seen {
		buf = appendState64(buf, e)
	}
	return buf
}
