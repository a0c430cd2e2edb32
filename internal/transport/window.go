package transport

import "fuzzybarrier/internal/stats"

// This file is the reliability layer extracted from
// internal/cluster/node.go's outbox, generalized over the message type
// so the cluster simulator (cluster.Message) and the barrierd service
// (transport.Message) run the *same* verified code: the pending ring,
// the Jacobson/Karels RTO policy with Karn's rule, exponential backoff,
// and the lazy-cancel retransmission timer queue. Only the timer *host*
// differs per environment — the cluster engines arm heap events, the
// real-time transports arm Endpoint.After — and each host keeps exactly
// the arming discipline it had.

// Pending is one unacked reliable send. The embedded bookkeeping mirrors
// cluster's pendingMsg field for field; Seq duplicates the sequence
// number out of the message payload so the ring is message-type
// agnostic.
type Pending[M any] struct {
	Msg       M
	Seq       uint64
	FirstSent int64
	RTO       int64
	Deadline  int64  // current retransmit deadline (deadline-queue hosts)
	Armseq    uint64 // sequence consumed when that deadline was armed
	Tries     int
	InUse     bool
}

// RetxEntry is one armed deadline in a per-window timer queue, ordered
// by (Deadline, Armseq); Seq names the message the deadline guards.
type RetxEntry struct {
	Deadline int64
	Armseq   uint64
	Seq      uint64
}

// retxLess is the timer-queue ordering: earliest deadline first,
// arm-sequence breaking ties in arming order.
func retxLess(a, b RetxEntry) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.Armseq < b.Armseq
}

// Window is the reliable-send state for one (sender, peer) direction:
// each logical send keeps a Pending record until the matching ack
// returns; a timer retransmits on a Jacobson/Karels-estimated RTO with
// exponential backoff. Retransmissions reuse the original sequence
// number, so the receiver's ack matches whichever copy got through and
// duplicates are harmless.
//
// Pending records live in a power-of-two ring indexed by sequence
// number (seq & mask), recycled in place — no map, no per-send
// allocation. The ring grows only while the in-flight window exceeds
// its previous high-water mark.
type Window[M any] struct {
	nextSeq uint64 // last assigned sequence number
	RTT     stats.RTTEstimator
	Live    int // pending (unacked) messages, for stuck reports

	slots []Pending[M] // ring keyed by Seq & mask
	mask  uint64

	tq []RetxEntry // min-heap on (Deadline, Armseq); lazily pruned
}

// Init prepares a zero-value Window with the initial 8-slot ring (every
// host embeds one).
func (w *Window[M]) Init() {
	w.slots = make([]Pending[M], 8)
	w.mask = 7
}

// Assign consumes and returns the next sequence number.
func (w *Window[M]) Assign() uint64 {
	w.nextSeq++
	return w.nextSeq
}

// Slot returns the live pending record for seq, or nil.
func (w *Window[M]) Slot(seq uint64) *Pending[M] {
	p := &w.slots[seq&w.mask]
	if p.InUse && p.Seq == seq {
		return p
	}
	return nil
}

// Claim returns a free ring slot for seq, growing the ring past its
// high-water mark if the in-flight window collides.
func (w *Window[M]) Claim(seq uint64) *Pending[M] {
	for w.slots[seq&w.mask].InUse {
		w.grow()
	}
	return &w.slots[seq&w.mask]
}

// grow doubles the ring until every live record (and by construction
// any newly claimed seq) lands in a distinct slot.
func (w *Window[M]) grow() {
	size := len(w.slots)
	for {
		size *= 2
		ns := make([]Pending[M], size)
		nm := uint64(size - 1)
		ok := true
		for i := range w.slots {
			p := &w.slots[i]
			if !p.InUse {
				continue
			}
			j := p.Seq & nm
			if ns[j].InUse {
				ok = false
				break
			}
			ns[j] = *p
		}
		if ok {
			w.slots, w.mask = ns, nm
			return
		}
	}
}

// Ack retires a pending message, reporting whether seq was live. Only
// never-retransmitted messages contribute RTT samples (Karn's rule: a
// retransmitted message's ack is ambiguous about which copy it
// answers). Armed timers are cancelled lazily: the record is simply
// freed, and any timer still pointing at it is skipped when it fires.
func (w *Window[M]) Ack(seq uint64, now int64) bool {
	p := w.Slot(seq)
	if p == nil {
		return false // duplicate ack
	}
	if p.Tries == 1 {
		w.RTT.Observe(float64(now - p.FirstSent))
	}
	p.InUse = false
	w.Live--
	return true
}

// Backoff doubles p's RTO for its next retransmission, capped at maxRTO.
func (w *Window[M]) Backoff(p *Pending[M], maxRTO int64) {
	p.Tries++
	p.RTO *= 2
	if p.RTO > maxRTO {
		p.RTO = maxRTO
	}
}

// NextRTO returns the current retransmission timeout: the estimator's
// recommendation plus one tick of clock granularity (without it, a
// jitter-free link converges to RTO == RTT exactly and every ack ties
// with its own retransmission timer), clamped to [initRTO/4, maxRTO];
// initRTO before any sample.
func (w *Window[M]) NextRTO(initRTO, maxRTO int64) int64 {
	est := int64(w.RTT.RTO())
	if est <= 0 {
		return initRTO
	}
	est++
	if min := initRTO / 4; est < min {
		est = min
	}
	if est < 1 {
		est = 1
	}
	if est > maxRTO {
		est = maxRTO
	}
	return est
}

// TQLen returns the timer queue's length.
func (w *Window[M]) TQLen() int { return len(w.tq) }

// TQHead returns the queue's minimum entry; TQLen must be positive.
func (w *Window[M]) TQHead() RetxEntry { return w.tq[0] }

// TQPush adds one deadline to the per-window timer min-heap.
func (w *Window[M]) TQPush(e RetxEntry) {
	w.tq = append(w.tq, e)
	c := len(w.tq) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !retxLess(w.tq[c], w.tq[p]) {
			break
		}
		w.tq[c], w.tq[p] = w.tq[p], w.tq[c]
		c = p
	}
}

// TQPop removes the minimum deadline.
func (w *Window[M]) TQPop() {
	last := len(w.tq) - 1
	w.tq[0] = w.tq[last]
	w.tq = w.tq[:last]
	n := last
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		if l >= n {
			break
		}
		m := l
		if r < n && retxLess(w.tq[r], w.tq[l]) {
			m = r
		}
		if !retxLess(w.tq[m], w.tq[c]) {
			break
		}
		w.tq[c], w.tq[m] = w.tq[m], w.tq[c]
		c = m
	}
}
