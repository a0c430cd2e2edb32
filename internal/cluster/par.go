package cluster

import (
	"sync"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/des"
)

// parEngine runs one simulation across Config.Shards lanes using
// conservative parallel discrete-event simulation (Chandy–Misra–Bryant
// style). Nodes are split into contiguous shards; each shard owns its
// nodes, their outboxes, and a private event queue, and the only
// cross-shard traffic is message delivery. The conservative lookahead
// is the minimum link delay (Net.Latency >= 1): a message sent at time
// t arrives no earlier than t + Latency, so if every shard has
// simulated up to a common window start W, no event dispatched inside
// the window [W, W+Latency) can create another event inside it on a
// *different* shard. Shards therefore advance window by window with no
// locks at all: cross-shard deliveries are appended to single-writer
// per-(target, source) inboxes and drained by the coordinator between
// windows, when no worker is running.
//
// The window barrier is the repo's own primitive: workers and the
// coordinator synchronize each window through two core.HierBarrier
// phases (start: window parameters published; end: all shard state and
// inboxes quiescent) — the simulator of barriers is itself synchronized
// by one.
//
// Determinism: every event key and RNG draw is computed from state
// owned by one node (sim.go), each shard dispatches its events in
// canonical key order, and no event's execution can depend on an event
// with a larger key (same-shard: dispatched in order; cross-shard:
// influence only via messages, which land at least a full window
// later). The interleaving of shards inside a window is therefore
// unobservable, and the run is byte-identical to the serial engine —
// logs included, via the keyed-line merge in sim.go.
//
// Two situations make a window's outcome depend on global dispatch
// order after all: the watchdog/tick budget (checked against every
// event in serial) and run completion (the serial loop stops at the
// exact event that retires the last node). The coordinator proves per
// window that neither can occur — the budget check cannot fire at
// (bound-1, min shard progress), and no run can complete in a window
// unless every unfinished node was one release away at its start
// (consecutive releases of a node are at least one lookahead apart,
// because each depends on a message hop) — and otherwise falls back to
// "careful" mode: it steps that window's events itself, one globally
// minimal key at a time across shards, reproducing serial semantics
// exactly.
type parEngine struct {
	s         *Sim
	shards    []*exec
	shardOf   []int32 // node id -> owning shard
	lookahead int64

	// inbox[to][from] is appended by shard `from` while a window runs
	// and drained by the coordinator between windows; exactly one
	// goroutine touches a cell at any time.
	inbox [][][]inEvent

	start, end core.SplitBarrier // window barriers (shards + coordinator)
	winBound   int64             // published at the start barrier
	stop       bool
	wg         sync.WaitGroup

	careful  bool  // careful serial window in progress
	globalLP int64 // cross-shard max lastProgress, maintained in careful mode
}

// inEvent is one cross-shard delivery awaiting its owner's queue.
type inEvent struct {
	at  int64
	pri uint64
	msg Message
}

func newParEngine(s *Sim) *parEngine {
	ns := s.cfg.Shards
	// Shards + 1 participants on Shards Ps reads as oversubscribed, which
	// parks every Wait at once; but the coordinator idles while the
	// workers run, so an explicit budget keeps the spin before parking.
	start, end := core.NewHierBarrier(ns+1), core.NewHierBarrier(ns+1)
	start.SpinLimit, end.SpinLimit = core.DefaultSpinLimit, core.DefaultSpinLimit
	p := &parEngine{
		s:         s,
		shardOf:   make([]int32, s.cfg.Nodes),
		lookahead: s.cfg.Net.Latency,
		start:     start,
		end:       end,
	}
	for i := 0; i < ns; i++ {
		p.shards = append(p.shards, s.newExec(int32(i)))
	}
	for id := range p.shardOf {
		p.shardOf[id] = int32(id * ns / s.cfg.Nodes)
	}
	p.inbox = make([][][]inEvent, ns)
	for i := range p.inbox {
		p.inbox[i] = make([][]inEvent, ns)
	}
	return p
}

// run is the coordinator loop.
func (p *parEngine) run() {
	p.startWorkers()
	n := len(p.s.nodes)
	for p.doneCount() < n {
		if !p.stepWindow() {
			break // stuck; diagnosed inside
		}
	}
	p.shutdown()
}

// startWorkers launches one goroutine per shard, parked at the start
// barrier.
func (p *parEngine) startWorkers() {
	for _, x := range p.shards {
		p.wg.Add(1)
		go p.worker(x)
	}
}

// stepWindow advances the whole simulation by one lookahead window;
// false means the run was diagnosed stuck.
func (p *parEngine) stepWindow() bool {
	s := p.s
	p.drainInboxes()
	w, ok := p.minNextAt()
	if !ok {
		// No pending events anywhere but nodes unfinished: a protocol
		// bug (reliable delivery always leaves a timer pending).
		s.diagnoseStuck(p.maxNow(), "event queue drained")
		return false
	}
	bound := w + p.lookahead
	if s.budgetWhy(bound-1, p.minLP()) != "" || p.completionPossible() {
		return p.runCareful(bound)
	}
	p.winBound = bound
	p.start.Await()
	// Workers dispatch their shards' events with at < bound.
	p.end.Await()
	return true
}

// shutdown releases the parked workers with the stop flag raised and
// joins them.
func (p *parEngine) shutdown() {
	p.stop = true
	p.start.Await()
	p.wg.Wait()
}

// worker advances one shard through successive windows.
func (p *parEngine) worker(x *exec) {
	defer p.wg.Done()
	for {
		p.start.Await()
		if p.stop {
			return
		}
		bound := p.winBound
		for x.stepFast(bound) == stepOK {
		}
		p.end.Await()
	}
}

// drainInboxes moves every pending cross-shard delivery into its
// owner's queue. Arrivals always carry at >= the previous window's
// bound, and the owner's queue time is that of its last dispatched
// event, before the bound, so none can land in the past.
func (p *parEngine) drainInboxes() {
	for to, row := range p.inbox {
		x := p.shards[to]
		for from, cell := range row {
			for _, ie := range cell {
				x.scheduleAt(ie.at, ie.msg.To, ie.pri, evDeliver, ie.msg)
			}
			row[from] = cell[:0]
		}
	}
}

// minNextAt returns the earliest pending event time across shards.
func (p *parEngine) minNextAt() (int64, bool) {
	var min int64
	ok := false
	for _, x := range p.shards {
		if t, has := x.q.NextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// doneCount sums finished nodes across shards.
func (p *parEngine) doneCount() int {
	n := 0
	for _, x := range p.shards {
		n += x.doneNodes
	}
	return n
}

// maxNow is the globally latest dispatched event time — what the serial
// engine's clock would read.
func (p *parEngine) maxNow() int64 {
	var t int64
	for _, x := range p.shards {
		if x.now > t {
			t = x.now
		}
	}
	return t
}

// minLP is the stalest shard's last local epoch completion: the
// conservative bound under which the budget check provably cannot fire
// for any shard inside the window.
func (p *parEngine) minLP() int64 {
	lp := p.shards[0].lastProgress
	for _, x := range p.shards[1:] {
		if x.lastProgress < lp {
			lp = x.lastProgress
		}
	}
	return lp
}

// maxLP is the true (serial-semantics) lastProgress: the most recent
// epoch completion anywhere.
func (p *parEngine) maxLP() int64 {
	lp := p.shards[0].lastProgress
	for _, x := range p.shards[1:] {
		if x.lastProgress > lp {
			lp = x.lastProgress
		}
	}
	return lp
}

// completionPossible reports whether the run could complete within one
// lookahead window: only if every unfinished node is exactly one
// release from done. (A node's consecutive releases are >= one link
// latency apart — each causally includes a message hop carrying its own
// previous arrival — so a node more than one release away cannot retire
// inside a window, and with any such node the run cannot end there.)
func (p *parEngine) completionPossible() bool {
	last := int64(p.s.cfg.Epochs) - 1
	for i := range p.s.nodes {
		if n := &p.s.nodes[i]; !n.done && n.releasedThrough < last {
			return false
		}
	}
	return true
}

// runCareful executes one window with exact serial semantics on the
// coordinator: repeatedly dispatch the globally smallest pending key
// across shards (the workers are parked at the start barrier, so the
// coordinator owns all shard state), applying the per-event budget
// check against the cross-shard progress maximum and stopping the
// instant the last node retires. Returns false when the run was
// diagnosed stuck.
func (p *parEngine) runCareful(bound int64) bool {
	p.careful = true
	defer func() { p.careful = false }()
	p.globalLP = p.maxLP()
	n := len(p.s.nodes)
	for p.doneCount() < n {
		var best *exec
		var bestKey des.Key
		for _, x := range p.shards {
			if k, ok := x.q.Peek(bound - 1); ok && (best == nil || k.Less(bestKey)) {
				best, bestKey = x, k
			}
		}
		if best == nil {
			return true // window exhausted; outer loop drains and continues
		}
		switch best.stepFast(bound) {
		case stepStuck:
			return false
		case stepOK:
			if best.lastProgress > p.globalLP {
				p.globalLP = best.lastProgress
			}
		}
	}
	return true
}
