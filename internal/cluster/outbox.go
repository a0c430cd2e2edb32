package cluster

import (
	"fmt"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/transport"
)

// outbox is the cluster-side host of the one reliable-send core
// (transport.Window, which owns sequence numbers, the pending ring, the
// RTO policy with Karn's rule, backoff capped at maxRTO, and the
// stale-deadline prune — one codepath shared with the barrierd
// transports). What stays here is the timer arming.
//
// One armed timer per node. Each send or retransmission consumes one of
// the owner's local priorities as its arm sequence, so the window's
// deadline queue holds (deadline, armseq) keys, and the node keeps
// exactly one evRetx event queued: at the key of the live head
// (Window.Due). When a send, an ack or a retransmission moves the head,
// rearm withdraws the queued event (des.Queue.Remove) and pushes one at
// the new key. So every evRetx that fires retransmits, and it fires at
// exactly the key a dedicated per-message timer armed at send time
// would have had — the schedule the transcript pins record. All keys
// here belong to one node, so they need no node component.
type outbox struct {
	w     transport.Window[Message]
	timer transport.RetxEntry // key of the queued evRetx event; Seq 0 when none is
}

// Send transmits m reliably (assigning its sequence number).
func (n *node) Send(m Message) {
	o, x := &n.out, n.x
	m.Seq = o.w.Next()
	m.From = int32(n.id)
	o.w.Track(m, m.Seq, x.now, n.nextPri())
	x.sends++
	if x.s.wantLog {
		x.logf(n.id, trace.EvSend, "send %v", m)
	}
	x.netSend(m)
	n.rearm()
}

// ack retires the message seq names; only the head's ack moves the timer.
func (n *node) ack(seq uint64) {
	if n.out.w.Ack(seq, n.x.now) && seq == n.out.timer.Seq {
		n.rearm()
	}
}

// rearm keeps the node's one evRetx event at the live head's key.
func (n *node) rearm() {
	o := &n.out
	head, _ := o.w.Due()
	if head == o.timer {
		return
	}
	if o.timer.Seq != 0 && !n.x.q.Remove(des.Key{At: o.timer.Deadline, Pri: o.timer.Armseq, Node: int32(n.id)}) {
		panic(fmt.Sprintf("cluster: node %d lost its retransmit timer at t=%d pri=%d", n.id, o.timer.Deadline, o.timer.Armseq))
	}
	o.timer = head
	if head.Seq != 0 {
		n.x.scheduleAt(head.Deadline, int32(n.id), head.Armseq, evRetx, Message{})
	}
}

// fireRetx handles the node's evRetx event, which is always the live
// head's: retransmit that message, doubling its RTO, and arm the new head.
func (n *node) fireRetx(at int64, pri uint64) {
	o, x := &n.out, n.x
	if o.timer.Deadline != at || o.timer.Armseq != pri {
		panic(fmt.Sprintf("cluster: node %d retransmit timer fired at t=%d pri=%d, armed t=%d pri=%d",
			n.id, at, pri, o.timer.Deadline, o.timer.Armseq))
	}
	o.timer = transport.RetxEntry{}
	m, tries, rto := o.w.Retry(x.now, n.nextPri())
	x.retransmits++
	if x.s.wantLog {
		x.logf(n.id, trace.EvRetransmit, "retransmit %v try=%d rto=%d", m, tries, rto)
	}
	x.netSend(m)
	n.rearm()
}
