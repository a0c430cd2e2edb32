package transport

import "fuzzybarrier/internal/stats"

// This file is the one reliable-send core, shared by the cluster
// simulator (cluster.Message, internal/cluster/outbox.go) and the
// barrierd service (transport.Message, reliable.go): sequence numbers,
// the pending ring, the Jacobson/Karels RTO policy with Karn's rule,
// exponential backoff, and the lazy-cancel retransmission deadline
// queue with its stale-entry prune. The hosts keep only their timer
// arming — a cluster node keeps one des.Queue event at its window's
// live head (Due) and moves it with des.Queue.Remove when the head
// changes, the real-time transports one covering Endpoint.After — and
// each supplies the arm sequence numbers, so a deadline's key is the
// host's own.

// pending is one ring slot: an unacked reliable send, or a free slot
// when tries is 0 (every tracked send has been tried at least once).
// seq duplicates the sequence number out of the message payload so the
// ring is message-type agnostic; reading it from the message through a
// method constraint instead goes through the generic dictionary on
// every lookup. With a 24-byte message the record is 64 bytes, one
// cache line.
type pending[M any] struct {
	msg       M
	seq       uint64
	firstSent int64
	rto       int64
	armseq    uint64 // sequence consumed when the live deadline was armed
	tries     int32  // transmissions so far; 0 marks a free slot
}

// RetxEntry is one armed deadline in a window's timer queue, ordered
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
// each logical send keeps a pending record until the matching ack
// returns; a deadline retransmits it on a Jacobson/Karels-estimated RTO
// with exponential backoff. Retransmissions reuse the original sequence
// number, so the receiver's ack matches whichever copy got through and
// duplicates are harmless.
//
// Pending records live in a power-of-two ring indexed by sequence
// number (seq & mask), recycled in place — no map, no per-send
// allocation. A slot whose tries is 0 is free, and an ack frees its
// slot by zeroing tries; a live slot matches a seq only if its own seq
// is that seq, so an ack for a seq whose slot a later send has reused
// finds nothing. The ring grows only while the in-flight window exceeds
// its previous high-water mark; the first ring may be carved from a
// slab shared with other windows (InitWindows), and growth always moves
// to a ring of the window's own. Deadlines live in a min-heap that is
// never searched: an ack or a re-arm leaves the old entry behind, and
// Due drops it once it reaches the head.
type Window[M any] struct {
	nextSeq         uint64 // last assigned sequence number
	initRTO, maxRTO int64
	rtt             stats.RTTEstimator
	live            int // pending (unacked) messages

	slots []pending[M] // ring keyed by seq & mask
	mask  uint64

	tq []RetxEntry // min-heap on (Deadline, Armseq); lazily pruned
}

// ringSlots is the size of a window's first ring.
const ringSlots = 8

// Init prepares a zero-value Window with the initial 8-slot ring and
// its RTO bounds: initRTO before any RTT sample, backoff capped at
// maxRTO.
func (w *Window[M]) Init(initRTO, maxRTO int64) {
	w.init(make([]pending[M], ringSlots), initRTO, maxRTO)
}

// InitWindows prepares n zero-value Windows, window(i) for i in [0, n),
// as Init would, but carves their first rings from one slab in index
// order: one allocation instead of n, and neighbouring windows' rings
// in neighbouring memory.
func InitWindows[M any](n int, initRTO, maxRTO int64, window func(i int) *Window[M]) {
	slab := make([]pending[M], n*ringSlots)
	for i := range n {
		window(i).init(slab[i*ringSlots:(i+1)*ringSlots:(i+1)*ringSlots], initRTO, maxRTO)
	}
}

// init prepares w with ring as its first ring.
func (w *Window[M]) init(ring []pending[M], initRTO, maxRTO int64) {
	w.slots = ring
	w.mask = uint64(len(ring) - 1)
	w.initRTO, w.maxRTO = initRTO, maxRTO
}

// Next consumes and returns the next sequence number.
func (w *Window[M]) Next() uint64 {
	w.nextSeq++
	return w.nextSeq
}

// Track records m, sent under seq at now, as pending and arms its first
// retransmit deadline at now plus the current RTO, keyed by armseq.
func (w *Window[M]) Track(m M, seq uint64, now int64, armseq uint64) {
	for w.slots[seq&w.mask].tries != 0 {
		w.grow()
	}
	p := &w.slots[seq&w.mask]
	*p = pending[M]{msg: m, seq: seq, firstSent: now, rto: w.nextRTO(), tries: 1}
	w.live++
	w.arm(p, now, armseq)
}

// Live returns the number of pending (unacked) messages, for stuck
// reports.
func (w *Window[M]) Live() int { return w.live }

// slot returns the live pending record for seq, or nil.
func (w *Window[M]) slot(seq uint64) *pending[M] {
	p := &w.slots[seq&w.mask]
	if p.tries != 0 && p.seq == seq {
		return p
	}
	return nil
}

// grow doubles the ring until every live record (and by construction
// any newly claimed seq) lands in a distinct slot.
func (w *Window[M]) grow() {
	size := len(w.slots)
	for {
		size *= 2
		ns := make([]pending[M], size)
		nm := uint64(size - 1)
		ok := true
		for i := range w.slots {
			p := &w.slots[i]
			if p.tries == 0 {
				continue
			}
			j := p.seq & nm
			if ns[j].tries != 0 {
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
// answers). Its deadline is cancelled lazily: the record is simply
// freed, and Due drops the entry when it reaches the head.
func (w *Window[M]) Ack(seq uint64, now int64) bool {
	p := w.slot(seq)
	if p == nil {
		return false // duplicate ack
	}
	if p.tries == 1 {
		w.rtt.Observe(float64(now - p.firstSent))
	}
	p.tries = 0
	w.live--
	return true
}

// Head returns the timer queue's earliest entry without pruning it: it
// may belong to an acked message or to a superseded arm. A host arms
// its timer for this entry, so a timer is never later than the earliest
// live deadline.
func (w *Window[M]) Head() (RetxEntry, bool) {
	if len(w.tq) == 0 {
		return RetxEntry{}, false
	}
	return w.tq[0], true
}

// Due drops stale entries — those of acked messages and those a later
// arm superseded — from the head of the timer queue and returns the
// earliest live deadline: the next message due for retransmission. The
// host decides whether its timer covers that deadline; if so, Retry
// retransmits it.
func (w *Window[M]) Due() (RetxEntry, bool) {
	for len(w.tq) > 0 {
		e := w.tq[0]
		if p := w.slot(e.Seq); p != nil && p.armseq == e.Armseq {
			return e, true
		}
		w.pop()
	}
	return RetxEntry{}, false
}

// Retry takes the live head Due returned off the queue, doubles that
// message's RTO (capped at the window's maximum) and re-arms its
// deadline at now plus the new RTO, keyed by armseq. It returns the
// message to resend, its try count and the new RTO.
func (w *Window[M]) Retry(now int64, armseq uint64) (m M, tries int, rto int64) {
	p := w.slot(w.tq[0].Seq)
	w.pop()
	p.tries++
	p.rto = min(2*p.rto, w.maxRTO)
	w.arm(p, now, armseq)
	return p.msg, int(p.tries), p.rto
}

// arm queues p's next deadline at now + p.rto under armseq; the entry
// it supersedes, if any, goes stale.
func (w *Window[M]) arm(p *pending[M], now int64, armseq uint64) {
	p.armseq = armseq
	w.push(RetxEntry{Deadline: now + p.rto, Armseq: armseq, Seq: p.seq})
}

// nextRTO returns the current retransmission timeout: the estimator's
// recommendation plus one tick of clock granularity (without it, a
// jitter-free link converges to RTO == RTT exactly and every ack ties
// with its own retransmission timer), clamped to [initRTO/4, maxRTO];
// initRTO before any sample.
func (w *Window[M]) nextRTO() int64 {
	est := int64(w.rtt.RTO())
	if est <= 0 {
		return w.initRTO
	}
	return min(max(est+1, w.initRTO/4, 1), w.maxRTO)
}

// push adds one deadline to the timer min-heap.
func (w *Window[M]) push(e RetxEntry) {
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

// pop removes the minimum deadline.
func (w *Window[M]) pop() {
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
