package cluster

import (
	"fmt"

	"fuzzybarrier/internal/trace"
)

// This file is the event engine: a pooled arena of typed events ordered
// by a two-tier priority queue — a calendar wheel of per-tick buckets
// for the near horizon, backed by a flat, index-based 4-ary min-heap for
// far-future events — and dispatched through a switch instead of
// captured closures. Fixed-size slots are recycled through a free list,
// so the steady-state schedule/dispatch path performs zero allocations
// (TestFastEngineZeroAllocSteadyState pins that down with
// testing.AllocsPerRun).
//
// Determinism contract: events are dispatched in exactly the canonical
// (at, node, pri) key order defined in sim.go, and every scheduling
// action consumes the same node-local counters however the run is
// executed, so serial, sharded and batched runs all replay the identical
// schedule — byte-identical event logs and Results
// (TestEngineEquivalence) that match the recorded transcripts
// (TestTranscriptPins). Retransmit timers additionally rely on the
// lazy-cancel scheme in outbox.go inserting events at their *original*
// (deadline, armpri) key rather than a fresh priority; see
// outbox.ensureArmed.
//
// The engine also supports bounded dispatch (nextBefore/settle): the
// parallel engine runs each shard's engine one conservative lookahead
// window at a time, and the batch executor steps lanes in lockstep
// windows. Wheel time never advances past the bound, so events arriving
// later from another shard's window (always at >= the bound, by the
// lookahead argument) can never be scheduled in this engine's past.

// evKind tags a pooled event; dispatch switches on it.
type evKind uint8

const (
	evWork    evKind = iota // a node's non-barrier work span ends
	evRegion                // a node's barrier-region span ends
	evDeliver               // the network delivers msg to msg.To
	evRetx                  // an outbox retransmit-timer deadline (lazily cancelled)
)

// fevent is one pooled typed event. The Message payload lives inline so
// deliveries carry no pointer to chase and no allocation to free.
type fevent struct {
	at    int64
	pri   uint64
	start int64   // evWork/evRegion: span start, for trace-lane painting
	epoch int64   // evWork/evRegion
	msg   Message // evDeliver
	node  int32   // owner node (evDeliver: msg.To)
	kind  evKind
	next  int32 // free-list link while the slot is unqueued
}

// heapEntry carries an event's (at, node, pri) ordering key inline next
// to its arena index. The wheel buckets and the overflow heap compare
// and move only these entries — the arena, whose slots are far larger
// and randomly placed, is untouched until the winning event is
// dispatched, which keeps the queue's working set in cache.
type heapEntry struct {
	at   int64
	pri  uint64
	node int32
	idx  int32
}

// maxWheelSpan caps the calendar wheel's bucket count; configs whose
// longest delay exceeds it just route more events through the overflow
// heap (correct, merely slower).
const maxWheelSpan = 8192

// fastEngine owns the arena and the two-tier queue over it.
//
// The wheel invariant: every queued event with at < wt+H (H = bucket
// count) lives in bucket at&hmask, and every event in a bucket shares
// one dispatch time — two distinct times less than H apart cannot
// collide mod H, and an event further out than H is kept in the
// overflow heap until wt advances to within H of it. Each bucket is
// sorted by (node, pri); producers whose key is not larger than the
// bucket's current tail binary-search their slot. In the bucket
// currently dispatching, positions before the cursor are already
// dispatched, and no producible key can land there: a handler's
// zero-delay local events carry a priority above the dispatching
// event's (localPriBit, or a larger lseq of the same node), and
// deliveries always trail by at least one tick of link latency.
type fastEngine struct {
	x     *exec
	arena []fevent
	free  int32 // free-list head; -1 when empty

	wheel  [][]heapEntry // per-tick buckets; bucket wt&hmask drains at time wt
	dirty  []bool        // bucket appended out of order; sorted when it becomes current
	hmask  int64
	wt     int64 // wheel time: no queued event is earlier
	cursor int   // dispatch position within the current bucket
	queued int   // entries across all buckets

	over []heapEntry // 4-ary min-heap on the canonical key: events with at >= wt+H
}

func newFastEngine(x *exec) *fastEngine {
	// The wheel spans the longest delay any scheduling site can ask
	// for, so in ordinary runs the overflow heap stays empty.
	cfg := &x.s.cfg
	maxDelay := cfg.Work + cfg.WorkJitter + cfg.StraggleExtra
	if cfg.Region > maxDelay {
		maxDelay = cfg.Region
	}
	if d := cfg.Net.Latency + cfg.Net.Jitter; d > maxDelay {
		maxDelay = d
	}
	if cfg.MaxRTO > maxDelay {
		maxDelay = cfg.MaxRTO
	}
	span := int64(64)
	for span <= maxDelay && span < maxWheelSpan {
		span *= 2
	}
	return &fastEngine{x: x, free: -1, wheel: make([][]heapEntry, span), dirty: make([]bool, span), hmask: span - 1}
}

// alloc takes a slot off the free list, growing the arena only until
// the run's high-water mark is reached.
func (f *fastEngine) alloc() int32 {
	if f.free >= 0 {
		i := f.free
		f.free = f.arena[i].next
		return i
	}
	f.arena = append(f.arena, fevent{})
	return int32(len(f.arena) - 1)
}

// release returns a slot to the free list.
func (f *fastEngine) release(i int32) {
	f.arena[i].next = f.free
	f.free = i
}

// entryLess orders queue entries by the canonical (at, node, pri) key.
func entryLess(a, b heapEntry) bool { return keyLess(a, b) }

// sortBucket establishes canonical key order in a dirty bucket.
// Producers append mostly in order, so buckets are small and nearly
// sorted; straight insertion sort with the inlined key compare runs in
// O(n + inversions) and measures ahead of both binary-insertion and
// the generic sort's indirect comparator here.
func sortBucket(b []heapEntry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for j > 0 && entryLess(e, b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = e
	}
}

// empty reports whether nothing at all is queued.
func (f *fastEngine) empty() bool { return f.queued == 0 && len(f.over) == 0 }

// enqueue routes one keyed entry to its tier.
func (f *fastEngine) enqueue(e heapEntry) {
	if e.at < f.wt {
		panic(fmt.Sprintf("cluster: event scheduled in the past (at=%d, wheel time %d)", e.at, f.wt))
	}
	if e.at-f.wt < int64(len(f.wheel)) {
		f.insertWheel(e)
		return
	}
	f.pushOver(e)
}

// insertWheel places an entry in its bucket. Future buckets are kept
// cheap: in-order producers append, and an out-of-order arrival (a
// cross-node interleaving, overflow drain, or lazy retransmit re-arm)
// just appends too and marks the bucket dirty — settle sorts a dirty
// bucket exactly once, when wheel time reaches it. Only the bucket
// currently dispatching takes a sorted insert (binary search past the
// cursor), because its prefix order is already consumed; a dirty bucket
// at wheel time has cursor 0 (dirt is only ever added before the first
// dispatch — handlers' same-tick events carry keys above the
// dispatching event's, so they take the sorted path), so deferring its
// sort to settle never reorders behind the cursor.
func (f *fastEngine) insertWheel(e heapEntry) {
	bi := e.at & f.hmask
	b := f.wheel[bi]
	if f.dirty[bi] {
		f.wheel[bi] = append(b, e)
		f.queued++
		return
	}
	lo := 0
	if e.at == f.wt {
		lo = f.cursor
	}
	if len(b) == lo || entryLess(b[len(b)-1], e) {
		f.wheel[bi] = append(b, e)
		f.queued++
		return
	}
	if e.at != f.wt {
		f.dirty[bi] = true
		f.wheel[bi] = append(b, e)
		f.queued++
		return
	}
	i, j := lo, len(b)
	for i < j {
		h := (i + j) / 2
		if entryLess(b[h], e) {
			i = h + 1
		} else {
			j = h
		}
	}
	b = append(b, heapEntry{})
	copy(b[i+1:], b[i:])
	b[i] = e
	f.wheel[bi] = b
	f.queued++
}

// settle advances wheel time to the next nonempty bucket, pulling newly
// eligible overflow events on the way, without passing bound. It
// returns true when the current bucket holds an undispatched event
// earlier than bound. Wheel time is clamped to bound even when the next
// event lies beyond it, so events enqueued later from outside (inbox
// drains at >= bound) never land in the past.
func (f *fastEngine) settle(bound int64) bool {
	h := int64(len(f.wheel))
	for {
		bi := f.wt & f.hmask
		b := f.wheel[bi]
		if f.cursor < len(b) {
			if f.dirty[bi] {
				// First dispatch from this bucket (cursor is 0, see
				// insertWheel): establish the canonical order once.
				sortBucket(b)
				f.dirty[bi] = false
			}
			return f.wt < bound
		}
		if f.empty() || f.wt >= bound {
			return false
		}
		// Current bucket exhausted: recycle it and advance. With the
		// wheel empty, jump straight to the overflow's first deadline
		// instead of walking every intervening tick.
		f.wheel[f.wt&f.hmask] = b[:0]
		f.cursor = 0
		if f.queued == 0 {
			t := f.over[0].at
			if t > bound {
				t = bound
			}
			f.wt = t
		} else {
			f.wt++
		}
		for len(f.over) > 0 && f.over[0].at-f.wt < h {
			f.insertWheel(f.popOver())
		}
	}
}

// nextBefore dispatches the queue in canonical key order: return the
// arena index of the minimum event with at < bound, or -1 when nothing
// earlier than bound is queued (use empty() to distinguish a drained
// queue from a reached bound).
func (f *fastEngine) nextBefore(bound int64) int32 {
	if !f.settle(bound) {
		return -1
	}
	b := f.wheel[f.wt&f.hmask]
	e := b[f.cursor]
	f.cursor++
	f.queued--
	return e.idx
}

// peekKey returns the key of the event nextBefore(bound) would
// dispatch, without consuming it. The parallel engine's careful mode
// uses this to merge shard queues one globally-minimal event at a time.
func (f *fastEngine) peekKey(bound int64) (heapEntry, bool) {
	if !f.settle(bound) {
		return heapEntry{}, false
	}
	return f.wheel[f.wt&f.hmask][f.cursor], true
}

// nextAt returns the time of the earliest queued event without moving
// wheel time (the parallel coordinator uses it to pick the next window
// start, which may lie beyond the current window's bound). The scan
// walks at most one wheel span and stops at the first nonempty bucket;
// with an empty wheel it is O(1) off the overflow head.
func (f *fastEngine) nextAt() (int64, bool) {
	if b := f.wheel[f.wt&f.hmask]; f.cursor < len(b) {
		return f.wt, true
	}
	if f.queued > 0 {
		h := int64(len(f.wheel))
		for t := f.wt + 1; t < f.wt+h; t++ {
			if len(f.wheel[t&f.hmask]) > 0 {
				return t, true
			}
		}
		panic("cluster: wheel accounting broken (queued > 0 but no bucket)")
	}
	if len(f.over) > 0 {
		return f.over[0].at, true
	}
	return 0, false
}

// pushOver sifts a new entry up the 4-ary overflow heap; the hole is
// moved rather than swapped, so each level costs one copy.
func (f *fastEngine) pushOver(e heapEntry) {
	f.over = append(f.over, e)
	o := f.over
	c := len(o) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !entryLess(e, o[p]) {
			break
		}
		o[c] = o[p]
		c = p
	}
	o[c] = e
}

// popOver removes and returns the overflow heap's minimum entry.
func (f *fastEngine) popOver() heapEntry {
	o := f.over
	top := o[0]
	last := len(o) - 1
	e := o[last]
	f.over = o[:last]
	n := last
	c := 0
	for {
		first := 4*c + 1
		if first >= n {
			break
		}
		m := first
		stop := first + 4
		if stop > n {
			stop = n
		}
		for k := first + 1; k < stop; k++ {
			if entryLess(o[k], o[m]) {
				m = k
			}
		}
		if !entryLess(o[m], e) {
			break
		}
		o[c] = o[m]
		c = m
	}
	if n > 0 {
		o[c] = e
	}
	return top
}

// scheduleAt enqueues a typed event at an explicit (at, node, pri) key.
// Priorities are consumed by the scheduling site (the owner's lseq for
// local events, the sender's transmission counter for deliveries); the
// lazy retransmit-timer scheme re-inserts a timer at the original key
// its arm consumed, which is what keeps the schedule on the pinned
// transcripts.
func (f *fastEngine) scheduleAt(at int64, node int32, pri uint64, kind evKind, epoch, start int64, msg Message) {
	i := f.alloc()
	ev := &f.arena[i]
	ev.at, ev.pri, ev.kind, ev.node = at, pri, kind, node
	ev.epoch, ev.start, ev.msg = epoch, start, msg
	f.enqueue(heapEntry{at: at, pri: pri, node: node, idx: i})
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
	f := x.fast
	i := f.nextBefore(bound)
	if i < 0 {
		if !f.empty() {
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
	// Copy before releasing: handlers schedule new events, which may
	// reuse this slot or grow (and move) the arena.
	ev := f.arena[i]
	f.release(i)
	x.now = ev.at
	if why := x.s.budgetWhy(x.now, x.progress()); why != "" {
		x.s.diagnoseStuck(x.now, why)
		return stepStuck
	}
	x.curAt, x.curPri, x.curNode, x.curSub = ev.at, ev.pri, ev.node, 0
	switch ev.kind {
	case evWork:
		n := x.s.nodes[ev.node]
		n.markRange(ev.start, x.now, trace.KindWork)
		n.workDone(ev.epoch)
	case evRegion:
		n := x.s.nodes[ev.node]
		n.markRange(ev.start, x.now, trace.KindBarrier)
		n.regionDone(ev.epoch)
	case evDeliver:
		x.deliver(ev.msg)
	case evRetx:
		x.s.nodes[ev.node].out.fireRetx(ev.at, ev.pri)
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
