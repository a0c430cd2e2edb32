package cluster

import (
	"fmt"

	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/transport"
)

// outbox is the cluster-side host of the extracted reliability layer
// (transport.Window): each logical send keeps a pending record until the
// matching ack returns; a timer retransmits on a Jacobson/Karels-estimated
// RTO with exponential backoff (capped at MaxRTO). Retransmissions reuse
// the original sequence number, so the receiver's ack matches whichever
// copy got through and duplicates are harmless. The ring, RTO policy,
// Karn's rule and the retransmit-deadline heap live in
// internal/transport/window.go — one verified codepath shared with the
// real barrierd transports; what stays here is the timer arming.
//
// Timers are lazily cancelled. The outbox keeps the window's deadline
// queue (tq) plus a small stack of armed heap events (armed): a send or
// retransmission consumes one of the owner's local priorities, records
// its (deadline, armpri) in tq, and a heap event is inserted only when
// the new deadline undercuts every armed one. Acks cancel nothing — a
// fired event whose message was acked or re-armed is skipped and the
// queue head re-armed. Re-arming inserts the event at the original
// (deadline, armpri) key, never a fresh priority, so every real
// retransmission fires at exactly the key a dedicated per-message timer
// armed at send time would have had — the schedule the transcript pins
// record. The invariant is that the smallest armed key never exceeds the
// smallest live deadline key, so by induction an event with exactly that
// key fires, matches, and retransmits. All keys here belong to one node,
// so (deadline, pri) comparisons need no node component.
type outbox struct {
	n *node
	w transport.Window[Message]

	armed []retxKey // armed heap-event keys, descending (top = last = smallest)
}

// retxKey is the (at, pri) key of an outstanding evRetx heap event.
type retxKey struct {
	at  int64
	pri uint64
}

func newOutbox(n *node) *outbox {
	o := &outbox{n: n}
	o.w.Init()
	return o
}

// live returns the number of pending (unacked) messages, for stuck
// reports.
func (o *outbox) live() int { return o.w.Live }

// send transmits m reliably (assigning its sequence number).
func (o *outbox) send(m Message) {
	m.Seq = o.w.Assign()
	m.From = o.n.id
	x := o.n.x
	p := o.w.Claim(m.Seq)
	*p = transport.Pending[Message]{Msg: m, Seq: m.Seq, FirstSent: x.now, RTO: o.rto(), Tries: 1, InUse: true}
	o.w.Live++
	x.sends++
	if x.s.wantLog {
		x.logf(o.n.id, trace.EvSend, "send %v", m)
	}
	x.netSend(m)
	o.arm(p)
}

// arm consumes one local priority for p's retransmit timer: a tq entry
// plus at most one heap event.
func (o *outbox) arm(p *transport.Pending[Message]) {
	p.Armseq = o.n.nextPri()
	p.Deadline = o.n.x.now + p.RTO
	o.w.TQPush(transport.RetxEntry{Deadline: p.Deadline, Armseq: p.Armseq, Seq: p.Seq})
	o.ensureArmed()
}

// ensureArmed inserts an evRetx heap event at the timer queue's minimum
// key unless an armed event already covers it (armed top <= minimum).
// Armed keys strictly decrease as they are pushed, so `armed` is a
// stack with the smallest key on top — and heap events fire in key
// order, so fireRetx always pops exactly that top.
func (o *outbox) ensureArmed() {
	if o.w.TQLen() == 0 {
		return
	}
	head := o.w.TQHead()
	if len(o.armed) > 0 {
		top := o.armed[len(o.armed)-1]
		if top.at < head.Deadline || (top.at == head.Deadline && top.pri <= head.Armseq) {
			return
		}
	}
	o.armed = append(o.armed, retxKey{at: head.Deadline, pri: head.Armseq})
	o.n.x.scheduleAt(head.Deadline, int32(o.n.id), head.Armseq, evRetx, 0, 0, Message{})
}

// fireRetx handles one evRetx heap event: prune acked/re-armed
// deadlines, retransmit the message whose deadline key matches the
// fired event exactly (if it is still live), and re-arm the queue head.
func (o *outbox) fireRetx(at int64, pri uint64) {
	top := o.armed[len(o.armed)-1]
	if top.at != at || top.pri != pri {
		panic(fmt.Sprintf("cluster: node %d retransmit timer fired out of order (got t=%d pri=%d, armed t=%d pri=%d)",
			o.n.id, at, pri, top.at, top.pri))
	}
	o.armed = o.armed[:len(o.armed)-1]
	for o.w.TQLen() > 0 {
		e := o.w.TQHead()
		p := o.w.Slot(e.Seq)
		if p == nil || p.Armseq != e.Armseq {
			o.w.TQPop() // stale: acked, or re-armed by a later retransmission
			continue
		}
		if e.Deadline == at && e.Armseq == pri {
			o.w.TQPop()
			o.retransmit(p)
		}
		// A live head with a later key means this event fired early
		// (its message was acked after arming); the head stays queued.
		break
	}
	o.ensureArmed()
}

// retransmit re-sends a still-unacked message, doubling its RTO.
func (o *outbox) retransmit(p *transport.Pending[Message]) {
	o.w.Backoff(p, o.n.s.cfg.MaxRTO)
	x := o.n.x
	x.retransmits++
	if x.s.wantLog {
		x.logf(o.n.id, trace.EvRetransmit, "retransmit %v try=%d rto=%d", p.Msg, p.Tries, p.RTO)
	}
	x.netSend(p.Msg)
	o.arm(p)
}

// ack retires a pending message (transport.Window applies Karn's rule:
// only never-retransmitted messages contribute RTT samples).
func (o *outbox) ack(seq uint64) {
	o.w.Ack(seq, o.n.x.now)
}

// rto returns the current retransmission timeout from the shared policy
// (estimator recommendation plus one tick of granularity, clamped to
// [InitRTO/4, MaxRTO]; InitRTO before any sample).
func (o *outbox) rto() int64 {
	return o.w.NextRTO(o.n.s.cfg.InitRTO, o.n.s.cfg.MaxRTO)
}
