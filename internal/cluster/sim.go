package cluster

import (
	"fmt"
	"math"
	"sort"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
)

// Event ordering. Every event carries a canonical key
// (at, node, pri): the simulation tick, the *owner* node (the node on
// which the event executes — for deliveries, the destination), and a
// 64-bit per-owner priority. The serial engine and the sharded parallel
// engine both dispatch in strictly ascending key order, which is what
// makes their event logs and Results byte-identical
// (TestEngineEquivalence) and keeps them on the recorded transcripts
// (TestTranscriptPins).
//
// The priority space is split so that every component of the key is
// produced by state local to one node, never by a global counter — the
// property the parallel engine depends on (a shard can compute the keys
// of the events it creates without synchronizing with any other shard):
//
//   - local events (work/region spans, retransmit timers) take
//     localPriBit | lseq from the owner's monotone counter, consumed at
//     scheduling (or timer-arming) time;
//   - deliveries take deliverPri(from, txSeq) from the *sender's*
//     monotone transmission counter, consumed per network copy.
//
// Delivery priorities sort below local ones, so at equal (at, node) all
// deliveries dispatch before any same-tick local event. That inequality
// is also what honours des.Queue's producers' contract: a handler that
// schedules a zero-delay local event always lands it after the event
// being dispatched (deliveries never have zero delay — link latency is
// >= 1).
const localPriBit = uint64(1) << 63

// deliverPriBits is the per-sender transmission-counter width inside a
// delivery priority; the sender id occupies the bits above it (bounded
// by the maxNodes validation in withDefaults).
const deliverPriBits = 40

// deliverPri builds the priority of one network transmission copy.
func deliverPri(from int, txSeq uint64) uint64 {
	return (uint64(from)+1)<<deliverPriBits | txSeq
}

// logLine is one buffered event-log line in a parallel run, keyed by
// the dispatching event plus an intra-event counter so the per-shard
// buffers merge into exactly the serial emission order.
type logLine struct {
	at   int64
	pri  uint64
	node int32
	sub  int32
	text string
}

// exec is one execution lane: the mutable engine state that advances a
// set of nodes through simulated time. The serial engine uses a single
// exec for the whole run; the parallel engine gives each shard its own,
// so nothing on an exec ever needs atomic access — cross-shard traffic
// moves exclusively through the parallel engine's inboxes at window
// boundaries.
type exec struct {
	s     *Sim
	shard int32
	now   int64

	q *des.Queue[fevent] // the lane's events, popped in (at, node, pri) order

	lastProgress int64 // sim time of this lane's most recent epoch completion
	doneNodes    int

	// Network/reliability counters (summed into Result across lanes).
	sends, retransmits, drops, dups, delivered int64

	// Event-log buffering (parallel lanes only): lines carry the
	// dispatching event's key so a merge reproduces serial order.
	lines           []logLine
	curAt           int64
	curPri          uint64
	curNode, curSub int32
}

// Sim is one deterministic discrete-event cluster-barrier run.
type Sim struct {
	cfg   Config
	ex    *exec      // serial lane (nil when sharded)
	par   *parEngine // sharded parallel engine (Config.Shards > 1)
	nodes []*node
	log   []string
	tail  []string // stuck-diagnosis lines, appended after any merge

	// wantLog gates every hot-path logf call site so the variadic
	// argument slice is never even built when neither sink is active —
	// the zero-alloc steady state depends on this.
	wantLog bool

	stuck *StuckReport
	ran   bool
}

// New validates cfg, applies defaults, and builds a ready-to-Run Sim.
func New(cfg Config) (*Sim, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg}
	s.wantLog = cfg.Recorder != nil || cfg.LogEvents
	s.nodes = make([]*node, cfg.Nodes)
	if cfg.Shards > 1 {
		s.par = newParEngine(s)
	} else {
		s.ex = s.newExec(0)
	}
	for i := range s.nodes {
		x := s.ex
		if s.par != nil {
			x = s.par.shards[s.par.shardOf[i]]
		}
		s.nodes[i] = newNode(x, i)
	}
	return s, nil
}

// newExec builds one execution lane with its own event queue.
func (s *Sim) newExec(shard int32) *exec {
	return &exec{s: s, shard: shard, q: newQueue(&s.cfg)}
}

// schedWork schedules the end of node n's non-barrier work span for
// epoch e, consuming one of n's local priorities.
func (x *exec) schedWork(n *node, e, delay int64) {
	if delay < 0 {
		delay = 0
	}
	x.scheduleAt(x.now+delay, int32(n.id), n.nextPri(), evWork, e, x.now, Message{})
}

// schedRegion schedules the end of node n's barrier-region span for
// epoch e.
func (x *exec) schedRegion(n *node, e, delay int64) {
	if delay < 0 {
		delay = 0
	}
	x.scheduleAt(x.now+delay, int32(n.id), n.nextPri(), evRegion, e, x.now, Message{})
}

// schedDeliver schedules one network delivery of m at the
// sender-computed priority. Cross-shard deliveries detour through the
// parallel engine's inboxes; conservative lookahead (delay >= link
// latency >= window length) guarantees they dispatch in a later window,
// so the owner shard drains them at a window boundary it has not yet
// simulated past.
func (x *exec) schedDeliver(m Message, at int64, pri uint64) {
	if p := x.s.par; p != nil {
		if ts := p.shardOf[m.To]; ts != x.shard {
			p.inbox[ts][x.shard] = append(p.inbox[ts][x.shard], inEvent{at: at, pri: pri, msg: m})
			return
		}
	}
	x.scheduleAt(at, int32(m.To), pri, evDeliver, 0, 0, m)
}

// deliver hands one transmission to its destination node.
func (x *exec) deliver(m Message) {
	x.delivered++
	if x.s.wantLog {
		x.logf(m.To, trace.EvRecv, "recv %v", m)
	}
	x.s.nodes[m.To].handle(m)
}

// logf records one event-log line and mirrors it to the trace recorder.
// The log is append-only and — after the parallel merge — in canonical
// event-key order, so for a fixed Config it is byte-identical across
// runs and engines. Each sink's output is built exactly once:
// recorder-only runs format straight into the recorder, and when both
// sinks are active the rendered message is shared instead of being
// re-formatted per sink.
func (x *exec) logf(nodeID int, kind trace.EventKind, format string, args ...any) {
	s := x.s
	if s.par != nil {
		// Sharded lanes buffer keyed lines (Recorder is rejected at
		// validation when Shards > 1).
		msg := fmt.Sprintf(format, args...)
		x.lines = append(x.lines, logLine{
			at: x.curAt, pri: x.curPri, node: x.curNode, sub: x.curSub,
			text: fmt.Sprintf("t=%-8d n%-3d %-14s %s", x.now, nodeID, kind, msg),
		})
		x.curSub++
		return
	}
	rec := s.cfg.Recorder
	if !s.cfg.LogEvents {
		if rec == nil {
			return
		}
		rec.EventKindf(x.now, nodeID, kind, format, args...)
		return
	}
	msg := fmt.Sprintf(format, args...)
	rec.EventKind(x.now, nodeID, kind, msg)
	s.log = append(s.log, fmt.Sprintf("t=%-8d n%-3d %-14s %s", x.now, nodeID, kind, msg))
}

// tailf records one stuck-diagnosis line. These always terminate the
// log, so they bypass the per-event key merge and land in a tail buffer
// appended after it.
func (s *Sim) tailf(now int64, nodeID int, kind trace.EventKind, format string, args ...any) {
	rec := s.cfg.Recorder
	if !s.cfg.LogEvents {
		if rec == nil {
			return
		}
		rec.EventKindf(now, nodeID, kind, format, args...)
		return
	}
	msg := fmt.Sprintf(format, args...)
	rec.EventKind(now, nodeID, kind, msg)
	s.tail = append(s.tail, fmt.Sprintf("t=%-8d n%-3d %-14s %s", now, nodeID, kind, msg))
}

// EventLog returns the recorded log lines (empty unless
// Config.LogEvents was set).
func (s *Sim) EventLog() []string { return s.log }

// Run executes the simulation to completion (every node through every
// epoch) or until the watchdog declares it stuck / the tick budget is
// exhausted. The Result is returned in both cases; the error is non-nil
// only for stuck runs and carries the StuckReport.
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("cluster: Sim.Run called twice (build a new Sim to replay)")
	}
	s.ran = true
	s.start()
	if s.par != nil {
		s.par.run()
	} else {
		x := s.ex
		for x.doneNodes < len(s.nodes) {
			if x.stepFast(math.MaxInt64) != stepOK {
				break
			}
		}
	}
	s.finishLog()
	res := s.result()
	if s.stuck != nil {
		return res, fmt.Errorf("cluster: %s run stuck: %s", s.cfg.Protocol, s.stuck)
	}
	return res, nil
}

// start launches epoch 0 on every node (single-threaded, before any
// shard worker observes the queues).
func (s *Sim) start() {
	for _, n := range s.nodes {
		n.startEpoch(0)
	}
}

// finishLog merges the sharded per-lane log buffers into canonical
// event order and appends the stuck tail.
func (s *Sim) finishLog() {
	if s.par != nil && s.cfg.LogEvents {
		var all []logLine
		for _, x := range s.par.shards {
			all = append(all, x.lines...)
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.node != b.node {
				return a.node < b.node
			}
			if a.pri != b.pri {
				return a.pri < b.pri
			}
			return a.sub < b.sub
		})
		for _, l := range all {
			s.log = append(s.log, l.text)
		}
	}
	s.log = append(s.log, s.tail...)
	s.tail = nil
}

// budgetWhy runs the per-event liveness checks with the event's time
// already adopted; non-empty means the run is stuck for that reason.
// Every engine applies this to every dispatched event — the parallel
// engine by proving per window that it cannot fire (and falling back to
// serial careful stepping when it might), so the watchdog semantics do
// not depend on the engine.
func (s *Sim) budgetWhy(now, lastProgress int64) string {
	if now-lastProgress > s.cfg.WatchdogAfter {
		return "no epoch completed within watchdog window"
	}
	if now > s.cfg.MaxTicks {
		return "tick budget exhausted"
	}
	return ""
}

// diagnoseStuck builds the watchdog report: the laggiest node, the
// epoch it is wedged in, and a state line per node, all rendered
// through the trace layer as EvTimeout events.
func (s *Sim) diagnoseStuck(now int64, why string) {
	rep := &StuckReport{At: now, Node: -1, Why: why}
	minReleased := int64(-1)
	for _, n := range s.nodes {
		if !n.done && (rep.Node < 0 || n.releasedThrough < minReleased) {
			minReleased = n.releasedThrough
			rep.Node = n.id
			rep.Epoch = n.releasedThrough
		}
		rep.States = append(rep.States, fmt.Sprintf("node %d: %s", n.id, n.stateLine()))
	}
	s.tailf(now, rep.Node, trace.EvTimeout, "watchdog (%s): node %d stuck at epoch %d", why, rep.Node, rep.Epoch)
	for i, line := range rep.States {
		s.tailf(now, i, trace.EvTimeout, "%s", line)
	}
	s.stuck = rep
}

// result snapshots the counters into a Result. Counter sums are
// commutative, so the per-shard split of a parallel run cannot change
// them.
func (s *Sim) result() *Result {
	res := &Result{
		Protocol: s.cfg.Protocol,
		Nodes:    s.cfg.Nodes,
		Epochs:   s.cfg.Epochs,
		Stuck:    s.stuck,
	}
	lanes := []*exec{s.ex}
	if s.par != nil {
		lanes = s.par.shards
	}
	for _, x := range lanes {
		if x.now > res.Ticks {
			res.Ticks = x.now
		}
		res.Sends += x.sends
		res.Retransmits += x.retransmits
		res.Drops += x.drops
		res.Dups += x.dups
		res.Delivered += x.delivered
	}
	for _, n := range s.nodes {
		res.Stall += n.stall
		res.PerNodeStall = append(res.PerNodeStall, n.stall)
		res.ArriveAt = append(res.ArriveAt, n.arriveAt)
		res.ReleaseAt = append(res.ReleaseAt, n.releaseAt)
	}
	return res
}
