package cluster

import (
	"fmt"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
)

// This file is what a lane's event loop owns: the typed events it keeps
// in its des.Queue, the rule that sizes the queue's wheel, and the
// dispatch switch. The queue itself — arena, calendar wheel, overflow
// heap, and the argument that it pops in key order — is internal/des;
// events are dispatched through a switch instead of captured closures,
// so the steady-state schedule/dispatch path performs zero allocations
// (TestFastEngineZeroAllocSteadyState pins that down with
// testing.AllocsPerRun).
//
// Determinism contract: events are dispatched in exactly the canonical
// (at, node, pri) key order defined in sim.go, and every scheduling
// action consumes the same node-local counters however the run is
// executed, so serial and sharded runs replay the identical schedule —
// byte-identical event logs and Results
// (TestEngineEquivalence) that match the recorded transcripts
// (TestTranscriptPins). Retransmit timers additionally rely on the
// lazy-cancel scheme in outbox.go inserting events at their *original*
// (deadline, armpri) key rather than a fresh priority; see
// outbox.ensureArmed.
//
// Dispatch is bounded (stepFast): the parallel engine runs each shard's
// lane one conservative lookahead window at a time. A bounded miss
// leaves the queue's clock at the last dispatched event, behind the
// bound, so events arriving later from another shard's window (always
// at >= the bound, by the lookahead argument in par.go) can never be
// scheduled in this lane's past.

// evKind tags a pooled event; dispatch switches on it.
type evKind uint8

const (
	evWork    evKind = iota // a node's non-barrier work span ends
	evRegion                // a node's barrier-region span ends
	evDeliver               // the network delivers msg to msg.To
	evRetx                  // an outbox retransmit-timer deadline (lazily cancelled)
)

// fevent is one pooled typed event; its (at, node, pri) key lives in
// the queue. The Message payload is inline so deliveries carry no
// pointer to chase and no allocation to free.
type fevent struct {
	start int64   // evWork/evRegion: span start, for trace-lane painting
	epoch int64   // evWork/evRegion
	msg   Message // evDeliver
	kind  evKind
}

// newQueue sizes a lane's queue from the longest delay any scheduling
// site can ask for, so in ordinary runs the overflow heap stays empty.
func newQueue(cfg *Config) *des.Queue[fevent] {
	return des.NewQueue[fevent](max(cfg.Work+cfg.WorkJitter+cfg.StraggleExtra,
		cfg.Region, cfg.Net.Latency+cfg.Net.Jitter, cfg.MaxRTO))
}

// scheduleAt enqueues a typed event at an explicit (at, node, pri) key.
// Priorities are consumed by the scheduling site (the owner's lseq for
// local events, the sender's transmission counter for deliveries); the
// lazy retransmit-timer scheme re-inserts a timer at the original key
// its arm consumed, which is what keeps the schedule on the pinned
// transcripts.
func (x *exec) scheduleAt(at int64, node int32, pri uint64, kind evKind, epoch, start int64, msg Message) {
	ev := x.q.Push(des.Key{At: at, Pri: pri, Node: node})
	ev.kind, ev.epoch, ev.start, ev.msg = kind, epoch, start, msg
}

// stepResult reports what one bounded step did.
type stepResult uint8

const (
	stepOK      stepResult = iota // one event dispatched
	stepBound                     // next event is at/after the bound; nothing consumed
	stepDrained                   // queue empty (diagnosed stuck if nodes unfinished)
	stepStuck                     // budget check failed (diagnosed)
)

// stepFast pops and dispatches the next event earlier than bound.
func (x *exec) stepFast(bound int64) stepResult {
	k, ev, ok := x.q.Pop(bound - 1)
	if !ok {
		if x.q.Len() > 0 {
			return stepBound
		}
		// No pending events but nodes unfinished: a protocol bug
		// (reliable delivery always leaves a timer pending). In a
		// sharded run the coordinator owns this diagnosis (another
		// shard may still hold events).
		if x.s.par == nil {
			x.s.diagnoseStuck(x.now, "event queue drained")
		}
		return stepDrained
	}
	x.now = k.At
	if why := x.s.budgetWhy(x.now, x.progress()); why != "" {
		x.s.diagnoseStuck(x.now, why)
		return stepStuck
	}
	x.curAt, x.curPri, x.curNode, x.curSub = k.At, k.Pri, k.Node, 0
	switch ev.kind {
	case evWork:
		n := x.s.nodes[k.Node]
		n.markRange(ev.start, x.now, trace.KindWork)
		n.workDone(ev.epoch)
	case evRegion:
		n := x.s.nodes[k.Node]
		n.markRange(ev.start, x.now, trace.KindBarrier)
		n.regionDone(ev.epoch)
	case evDeliver:
		x.deliver(ev.msg)
	case evRetx:
		x.s.nodes[k.Node].out.fireRetx(k.At, k.Pri)
	default:
		panic(fmt.Sprintf("cluster: unknown event kind %d", ev.kind))
	}
	return stepOK
}

// progress returns the lastProgress value the budget check must see:
// the lane's own in serial and parallel windows (where the coordinator
// proved the check cannot fire), the cross-shard maximum during careful
// serial stepping (exact serial semantics).
func (x *exec) progress() int64 {
	if p := x.s.par; p != nil && p.careful {
		return p.globalLP
	}
	return x.lastProgress
}
