package cluster

import (
	"fmt"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
)

// node is one cluster participant. Its life is the paper's episode
// structure: per epoch e, do non-barrier work, Arrive(e), execute the
// barrier region, then Wait(e) — which blocks only if the protocol has
// not released e by the time the region ends. The protocol's release
// latency is therefore overlapped with (absorbed by) the region, and
// the node's stall counter records exactly the unabsorbed remainder.
//
// A node belongs to exactly one execution lane (x): the run's single
// exec in serial mode, its shard's exec in a parallel run. Everything
// the node mutates — its own fields, its outbox, the lane's engine and
// counters — is owned by that lane, which is the ownership discipline
// the parallel engine's lock-free design rests on.
//
// The record holds only what the dispatch loop reads per event: the
// Sim (cfg, the node table) is x.s, the per-epoch timestamps live in
// the Sim's one stamps slab, and the protocol machine and the outbox's
// first ring are carved in node order from per-Sim slabs.
type node struct {
	id int
	x  *exec

	rng    des.RNG // work-jitter draws
	netRNG des.RNG // per-sender link draws (latency jitter, drop, dup)
	txSeq  uint64
	lseq   uint64 // local-event priority counter (work/region/retx)

	out   outbox
	proto Proto

	epoch           int64 // epoch currently being executed
	releasedThrough int64 // epochs < this have completed locally
	since           int64 // start of the current work span, region span or blocked Wait
	stall           int64
	blocked         bool
	done            bool
}

// newProtoHook, when non-nil, replaces NewProto during node
// construction. White-box tests use it to inject broken protocol
// machines — e.g. one that never sends — to exercise failure paths
// (watchdog diagnosis on a drained event queue) the real protocols
// cannot reach.
var newProtoHook func(protocol string, env ProtoEnv) Proto

// init builds node id in place, on lane x, with the protocol machine
// newProto builds for it. The outbox's window is initialized by the
// caller (Sim's InitWindows carve).
func (n *node) init(x *exec, id int, newProto func(i int, env ProtoEnv) Proto) {
	seed := x.s.cfg.Seed
	*n = node{
		id:     id,
		x:      x,
		rng:    *des.NewRNG(des.Mix(seed, uint64(id)+1)),
		netRNG: *des.NewRNG(des.Mix(des.Mix(seed, 0xC0FFEE), uint64(id)+1)),
	}
	if newProtoHook != nil {
		n.proto = newProtoHook(x.s.cfg.Protocol, n)
		return
	}
	n.proto = newProto(id, n)
}

// nextPri consumes the node's next local-event priority.
func (n *node) nextPri() uint64 {
	n.lseq++
	return localPriBit | n.lseq
}

// node implements ProtoEnv: the protocol machines act on the simulation
// through these methods (and through them alone), which is what lets
// internal/check run the same machines under its adversarial scheduler.

func (n *node) NodeID() int            { return n.id }
func (n *node) Nodes() int             { return n.x.s.cfg.Nodes }
func (n *node) TreeArity() int         { return n.x.s.cfg.TreeArity }
func (n *node) ReleasedThrough() int64 { return n.releasedThrough }
func (n *node) Release(e int64)        { n.release(e) }

// (Send, the reliable send, is in outbox.go.)

// startEpoch schedules epoch e's non-barrier work, or retires the node
// when every epoch is done.
func (n *node) startEpoch(e int64) {
	cfg := &n.x.s.cfg
	if e >= int64(cfg.Epochs) {
		n.done = true
		n.x.doneNodes++
		return
	}
	n.epoch = e
	w := cfg.Work
	if cfg.WorkJitter > 0 {
		w += n.rng.IntN(cfg.WorkJitter + 1)
	}
	if cfg.StraggleExtra > 0 && n.id == cfg.Straggler {
		w += cfg.StraggleExtra
	}
	n.x.schedSpan(n, evWork, w)
}

// workDone is the node's Arrive(e): record the timestamp, let the
// protocol start synchronizing, and begin the barrier region.
func (n *node) workDone(e int64) {
	arriveAt, _ := n.x.s.stampsOf(n.id)
	arriveAt[e] = n.x.now
	n.proto.Arrive(e)
	n.x.schedSpan(n, evRegion, n.x.s.cfg.Region)
}

// regionDone is the node's Wait(e): free if the release already
// arrived during the region, blocked otherwise.
func (n *node) regionDone(e int64) {
	if n.releasedThrough > e {
		n.startEpoch(e + 1)
		return
	}
	n.blocked = true
	n.since = n.x.now
}

// release marks epoch e complete at this node; the protocols call it
// exactly once per epoch (their receive paths drop stale duplicates
// first, and epochs complete in order by construction — a node cannot
// arrive at e+1 before releasing e, and no protocol releases e before
// every node arrived at e).
func (n *node) release(e int64) {
	if e < n.releasedThrough {
		return // duplicate release: already complete, ignore
	}
	if e > n.releasedThrough {
		panic(fmt.Sprintf("cluster: node %d released epoch %d before %d", n.id, e, n.releasedThrough))
	}
	_, releaseAt := n.x.s.stampsOf(n.id)
	releaseAt[e] = n.x.now
	n.releasedThrough = e + 1
	n.x.lastProgress = n.x.now
	if rec := n.x.s.cfg.Recorder; rec != nil {
		rec.Mark(n.x.now, n.id, trace.KindSync)
		rec.Eventf(n.x.now, n.id, "epoch %d complete", e)
	}
	if n.blocked {
		n.blocked = false
		n.stall += n.x.now - n.since
		n.markRange(n.since, n.x.now, trace.KindStall)
		n.startEpoch(e + 1)
	}
}

// handle dispatches one delivered message: acks feed the outbox; every
// other kind is acknowledged (so the sender stops retransmitting) and
// handed to the protocol, whose handlers are idempotent — a duplicate
// delivery re-acks and re-applies a no-op.
func (n *node) handle(m Message) {
	if m.Kind == MsgAck {
		n.ack(m.Seq)
		return
	}
	n.x.netSend(Message{Kind: MsgAck, From: int32(n.id), To: m.From, Epoch: m.Epoch, Seq: m.Seq})
	n.proto.Handle(m)
}

// markRange paints [from, to) on the node's trace lane; a nil recorder
// makes this free.
func (n *node) markRange(from, to int64, k trace.Kind) {
	rec := n.x.s.cfg.Recorder
	if rec == nil {
		return
	}
	for c := from; c < to; c++ {
		rec.Mark(c, n.id, k)
	}
}

// stateLine renders the node's position for stuck reports.
func (n *node) stateLine() string {
	switch {
	case n.done:
		return "done"
	case n.blocked:
		return fmt.Sprintf("blocked in Wait(epoch %d) since t=%d; unacked=%d; %s",
			n.epoch, n.since, n.out.w.Live(), n.proto.PendingLine())
	default:
		return fmt.Sprintf("executing epoch %d (released through %d); unacked=%d; %s",
			n.epoch, n.releasedThrough, n.out.w.Live(), n.proto.PendingLine())
	}
}
