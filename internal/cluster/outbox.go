package cluster

import (
	"fmt"

	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/transport"
)

// outbox is the cluster-side host of the one reliable-send core
// (transport.Window, which owns sequence numbers, the pending ring, the
// RTO policy with Karn's rule, backoff capped at maxRTO, and the
// stale-deadline prune — one codepath shared with the barrierd
// transports). What stays here is the timer arming.
//
// Timers are lazily cancelled. Each send or retransmission consumes one
// of the owner's local priorities as its arm sequence, so the window's
// deadline queue holds (deadline, armpri) keys; the outbox keeps a small
// stack of armed heap events (armed) and inserts one only when the
// queue head undercuts every armed key. Acks cancel nothing — a fired
// event whose message was acked or re-armed is skipped and the queue
// head re-armed. Re-arming inserts the event at the original
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
	o.w.Init(n.s.cfg.initRTO, n.s.cfg.maxRTO)
	return o
}

// send transmits m reliably (assigning its sequence number).
func (o *outbox) send(m Message) {
	m.Seq = o.w.Next()
	m.From = o.n.id
	x := o.n.x
	o.w.Track(m, m.Seq, x.now, o.n.nextPri())
	x.sends++
	if x.s.wantLog {
		x.logf(o.n.id, trace.EvSend, "send %v", m)
	}
	x.netSend(m)
	o.ensureArmed()
}

// ensureArmed inserts an evRetx heap event at the timer queue's minimum
// key unless an armed event already covers it (armed top <= minimum).
// Armed keys strictly decrease as they are pushed, so `armed` is a
// stack with the smallest key on top — and heap events fire in key
// order, so fireRetx always pops exactly that top.
func (o *outbox) ensureArmed() {
	head, ok := o.w.Head()
	if !ok {
		return
	}
	if len(o.armed) > 0 {
		top := o.armed[len(o.armed)-1]
		if top.at < head.Deadline || (top.at == head.Deadline && top.pri <= head.Armseq) {
			return
		}
	}
	o.armed = append(o.armed, retxKey{at: head.Deadline, pri: head.Armseq})
	o.n.x.scheduleAt(head.Deadline, int32(o.n.id), head.Armseq, evRetx, 0, 0, Message{})
}

// fireRetx handles one evRetx heap event: retransmit the message whose
// live deadline key matches the fired event exactly, doubling its RTO,
// and re-arm the queue head. A live head with a later key means this
// event fired early (its message was acked after arming); the head stays
// queued.
func (o *outbox) fireRetx(at int64, pri uint64) {
	top := o.armed[len(o.armed)-1]
	if top.at != at || top.pri != pri {
		panic(fmt.Sprintf("cluster: node %d retransmit timer fired out of order (got t=%d pri=%d, armed t=%d pri=%d)",
			o.n.id, at, pri, top.at, top.pri))
	}
	o.armed = o.armed[:len(o.armed)-1]
	if e, ok := o.w.Due(); ok && e.Deadline == at && e.Armseq == pri {
		x := o.n.x
		m, tries, rto := o.w.Retry(x.now, o.n.nextPri())
		x.retransmits++
		if x.s.wantLog {
			x.logf(o.n.id, trace.EvRetransmit, "retransmit %v try=%d rto=%d", m, tries, rto)
		}
		x.netSend(m)
	}
	o.ensureArmed()
}
