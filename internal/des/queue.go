// Package des is the repo's one discrete-event kernel: a queue of typed
// events that dispatches in ascending (time, node, priority) key order
// and allocates nothing in steady state. It knows nothing about networks,
// nodes or protocols — the event payload is a type parameter and the key
// is whatever the producer says it is — so transport.SimNet and every
// internal/cluster lane run on it. The seeded RNG and the stream mixer
// the simulators draw from live here too (rng.go).
package des

import (
	"fmt"
	"math/bits"
)

// Key is an event's position in the dispatch order: its time, then the
// node it runs on, then a priority within that node's tick. A producer
// that wants plain FIFO within a tick leaves Node zero and passes a
// counter it increments per push as Pri.
type Key struct {
	At   int64
	Pri  uint64
	Node int32
}

// Less is the dispatch order: (At, Node, Pri) ascending.
func (a Key) Less(b Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Pri < b.Pri
}

// entry carries an event's key inline next to its arena index. The
// wheel buckets and the overflow heap compare and move only these
// 24-byte entries — the arena, whose slots are far larger and randomly
// placed, is untouched until the winning event is popped, which keeps
// the queue's working set in cache.
type entry struct {
	at   int64
	pri  uint64
	node int32
	idx  int32
}

func (e entry) key() Key { return Key{At: e.at, Pri: e.pri, Node: e.node} }

func (e entry) less(o entry) bool { return e.key().Less(o.key()) }

// slot is one arena cell: the payload, and the free-list link while the
// cell is unqueued.
type slot[E any] struct {
	ev   E
	next int32
}

// Wheel size limits, in buckets. A queue whose longest delay exceeds
// maxSpan just routes more events through the overflow heap: correct,
// merely slower.
const (
	minSpan = 64
	maxSpan = 8192
)

// Queue holds events of type E until their time comes and pops them in
// Key order.
//
// Three parts. The arena is a flat slice of slots recycled through a
// free list, so a push allocates only until the run's high-water mark
// is reached, and a popped slot is zeroed (it pins nothing E points
// at). The wheel is one bucket per tick for the times in [now, now+H),
// H the bucket count; the overflow heap holds events at or beyond
// now+H and is drained into the wheel every time now advances.
//
// The wheel invariant: every queued event with At < now+H lives in
// bucket At&mask, and every event in a bucket shares one dispatch time
// — two distinct times less than H apart cannot collide mod H. Each
// bucket is sorted by (Node, Pri), so the route an event took to its
// bucket (pushed directly, or drained from the overflow heap) cannot
// show in the pop order. In the bucket being dispatched, positions
// before the cursor are already popped and nothing may be inserted
// there, which is the producers' contract: push nothing before Now, and
// at Now only keys above the last one popped. (internal/cluster: a
// handler's zero-delay local events carry a priority above the
// dispatching event's, and deliveries trail by at least one tick of
// link latency. transport.SimNet: Pri is a counter that only grows.)
type Queue[E any] struct {
	arena []slot[E]
	free  int32 // free-list head; -1 when empty

	wheel  [][]entry // bucket now&mask drains at time now
	dirty  []bool    // bucket appended out of order; sorted when it becomes current
	mask   int64
	now    int64
	cursor int // pop position within the current bucket
	queued int // unpopped entries across all buckets

	over []entry // 4-ary min-heap: events with At >= now+H

	// Bucket arrays no bucket holds, by capacity: spare[c] holds arrays
	// of capacity 1<<c, and bit c of spareMask is set while it has one.
	spare     [32][][]entry
	spareMask uint32
}

// NewQueue returns an empty queue at time 0 whose wheel is sized from
// the longest delay the producer will commonly ask for: the smallest
// power of two above maxDelay, within [64, 8192], so that in ordinary
// runs the overflow heap stays empty. The size is derived, never a
// setting: it moves time and memory (every bucket keeps the capacity of
// its largest burst), not the pop order.
func NewQueue[E any](maxDelay int64) *Queue[E] {
	span := int64(minSpan)
	for span <= maxDelay && span < maxSpan {
		span *= 2
	}
	return &Queue[E]{free: -1, wheel: make([][]entry, span), dirty: make([]bool, span), mask: span - 1}
}

// Now returns the time of the last popped (or peeked) event, 0 before
// the first.
func (q *Queue[E]) Now() int64 { return q.now }

// Len returns the number of queued events.
func (q *Queue[E]) Len() int { return q.queued + len(q.over) }

// Push queues an event at k, which must honour the producers' contract
// (see Queue), and returns its payload — zero — for the caller to fill
// in. The pointer is into the arena: it is good until the next call on
// the queue.
func (q *Queue[E]) Push(k Key) *E {
	if k.At < q.now {
		panic(fmt.Sprintf("des: event pushed into the past (at=%d, now=%d)", k.At, q.now))
	}
	i := q.free
	if i >= 0 {
		q.free = q.arena[i].next
	} else {
		q.arena = append(q.arena, slot[E]{})
		i = int32(len(q.arena) - 1)
	}
	e := entry{at: k.At, pri: k.Pri, node: k.Node, idx: i}
	if k.At-q.now < int64(len(q.wheel)) {
		q.insertWheel(e)
	} else {
		q.pushOver(e)
	}
	return &q.arena[i].ev
}

// Pop removes and returns the least queued event if its time is at most
// limit, advancing Now to that time. ok is false when the queue is
// empty or its least event lies beyond limit (Len tells which); Now is
// then unchanged, so a caller may still push at any time from Now on.
func (q *Queue[E]) Pop(limit int64) (k Key, ev E, ok bool) {
	if !q.settle(limit) {
		return k, ev, false
	}
	e := q.wheel[q.now&q.mask][q.cursor]
	q.cursor++
	q.queued--
	s := &q.arena[e.idx]
	ev = s.ev
	*s = slot[E]{next: q.free}
	q.free = e.idx
	return e.key(), ev, true
}

// Peek returns the key Pop(limit) would return, without consuming the
// event. Like Pop it advances Now to that key's time.
func (q *Queue[E]) Peek(limit int64) (Key, bool) {
	if !q.settle(limit) {
		return Key{}, false
	}
	return q.wheel[q.now&q.mask][q.cursor].key(), true
}

// NextAt returns the time of the least queued event without moving Now
// (a caller stepping several queues through shared windows uses it to
// pick the next window's start). The scan walks at most one wheel span
// and stops at the first nonempty bucket; with an empty wheel it is
// O(1) off the overflow head.
func (q *Queue[E]) NextAt() (int64, bool) {
	if q.cursor < len(q.wheel[q.now&q.mask]) {
		return q.now, true
	}
	if q.queued > 0 {
		// Everything on the overflow heap is later than anything here.
		for t, end := q.now+1, q.now+int64(len(q.wheel)); t < end; t++ {
			if len(q.wheel[t&q.mask]) > 0 {
				return t, true
			}
		}
		panic("des: wheel accounting broken (queued > 0 but no bucket)")
	}
	if len(q.over) > 0 {
		return q.over[0].at, true
	}
	return 0, false
}

// Remove withdraws the queued event at key k, reporting whether there
// was one; the slot is recycled as Pop recycles it. Keys are assumed
// unique (both producers make them so), and a key already popped is not
// queued. A clean bucket is found by binary search, a dirty one by a
// scan, and the overflow heap by a scan and a sift. A producer that
// keeps one live event per owner — internal/cluster's retransmit timer
// — moves it with Remove and Push instead of leaving a dead event to
// be dispatched.
func (q *Queue[E]) Remove(k Key) bool {
	if k.At < q.now {
		return false
	}
	var e entry
	if k.At-q.now < int64(len(q.wheel)) {
		bi := k.At & q.mask
		b := q.wheel[bi]
		lo := 0
		if k.At == q.now {
			lo = q.cursor
		}
		i := len(b)
		if q.dirty[bi] {
			for j := lo; j < len(b); j++ {
				if b[j].key() == k {
					i = j
					break
				}
			}
		} else {
			i = search(b, lo, entry{at: k.At, pri: k.Pri, node: k.Node})
		}
		if i == len(b) || b[i].key() != k {
			return false
		}
		e = b[i]
		q.wheel[bi] = append(b[:i], b[i+1:]...)
		q.queued--
	} else {
		i := 0
		for i < len(q.over) && q.over[i].key() != k {
			i++
		}
		if i == len(q.over) {
			return false
		}
		e = q.over[i]
		q.removeOver(i)
	}
	q.arena[e.idx] = slot[E]{next: q.free}
	q.free = e.idx
	return true
}

// Clear discards every queued event and keeps Now.
func (q *Queue[E]) Clear() {
	clear(q.arena) // drop what the events point at
	q.arena, q.free = q.arena[:0], -1
	for i := range q.wheel {
		q.wheel[i] = q.wheel[i][:0]
	}
	clear(q.dirty)
	q.over = q.over[:0]
	q.cursor, q.queued = 0, 0
}

// settle reports whether the current bucket holds an unpopped event no
// later than limit, advancing Now to the next nonempty bucket if it
// must and may.
func (q *Queue[E]) settle(limit int64) bool {
	if q.cursor < len(q.wheel[q.now&q.mask]) {
		return q.now <= limit
	}
	return q.advance(limit)
}

// advance moves Now to the least queued time, if there is one no later
// than limit: it recycles the exhausted current bucket, pulls in the
// overflow events the move brought within the wheel's span, and sorts
// the new current bucket if it was appended out of order. With the
// wheel empty the move is a jump straight to the overflow's first
// deadline, not a walk over every intervening tick.
func (q *Queue[E]) advance(limit int64) bool {
	t, ok := q.NextAt()
	if !ok || t > limit {
		return false
	}
	bi := q.now & q.mask
	q.retire(q.wheel[bi])
	q.wheel[bi] = nil
	q.cursor = 0
	q.now = t
	for h := int64(len(q.wheel)); len(q.over) > 0 && q.over[0].at-t < h; {
		q.insertWheel(q.popOver())
	}
	if bi = t & q.mask; q.dirty[bi] {
		// The cursor is 0 (see insertWheel): establish the order once,
		// before the first pop from this bucket.
		sortBucket(q.wheel[bi])
		q.dirty[bi] = false
	}
	return true
}

// insertWheel places an entry in its bucket. Future buckets are kept
// cheap: in-order producers append, and an out-of-order arrival (an
// interleaving of producers, an overflow drain, a timer re-armed at its
// original key) just appends too and marks the bucket dirty — advance
// sorts a dirty bucket exactly once, when Now reaches it. Only the
// bucket being dispatched takes a sorted insert (binary search past the
// cursor), because its prefix is already consumed. The current bucket
// is never dirty: dirt is only ever added to a future bucket, and is
// removed on arrival there with the cursor at 0, so the deferred sort
// never reorders behind the cursor.
func (q *Queue[E]) insertWheel(e entry) {
	bi := e.at & q.mask
	b := q.wheel[bi]
	if len(b) == cap(b) {
		b = q.regrow(b)
	}
	q.queued++
	if q.dirty[bi] {
		q.wheel[bi] = append(b, e)
		return
	}
	lo := 0
	if e.at == q.now {
		lo = q.cursor
	}
	if len(b) == lo || b[len(b)-1].less(e) {
		q.wheel[bi] = append(b, e)
		return
	}
	if e.at != q.now {
		q.dirty[bi] = true
		q.wheel[bi] = append(b, e)
		return
	}
	i := search(b, lo, e)
	b = append(b, entry{})
	copy(b[i+1:], b[i:])
	b[i] = e
	q.wheel[bi] = b
}

// regrow moves the full bucket b into the smallest spare array larger
// than b's, or a new one of twice its capacity if there is none, and
// retires b's array. Arrays pass between buckets instead of staying
// with one, so the queue allocates only while the number of buckets
// holding a burst of some size at once is still growing — not until
// every bucket has seen its own largest burst, which took the cluster
// simulator's 512-bucket wheel millions of events. Capacities are
// powers of two, and a bucket that fills from empty climbs through the
// spares: at most twice its final length in copies.
func (q *Queue[E]) regrow(b []entry) []entry {
	c := bits.Len(uint(cap(b))) // the class above b's
	var nb []entry
	if m := q.spareMask >> c << c; m == 0 {
		nb = make([]entry, 0, 1<<c)
	} else {
		c = bits.TrailingZeros32(m)
		s := q.spare[c]
		nb = s[len(s)-1]
		q.spare[c] = s[:len(s)-1]
		if len(s) == 1 {
			q.spareMask &^= 1 << c
		}
	}
	nb = append(nb, b...)
	q.retire(b)
	return nb
}

// retire keeps a bucket array no bucket uses for regrow to hand out.
func (q *Queue[E]) retire(b []entry) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	q.spare[c] = append(q.spare[c], b[:0])
	q.spareMask |= 1 << c
}

// search returns the first position at or after lo in the sorted bucket
// b whose entry is not less than e.
func search(b []entry, lo int, e entry) int {
	i, j := lo, len(b)
	for i < j {
		h := (i + j) / 2
		if b[h].less(e) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// sortBucket establishes key order in a dirty bucket. Every entry in a
// bucket shares one time, so only (Node, Pri) is compared. The buckets
// are not nearly sorted: on the cluster simulator's benchmark shape
// (4,096 lossy nodes, seed 2, 19 epochs) 79,579 dirty buckets averaged
// 35.2 entries and 12.7 inversions per entry — more than a shuffled
// bucket's (n-1)/4. Sorting those buckets, captured, measured (2-core
// x86-64, Go 1.24, ns per entry): straight insertion 37–48 with this
// compare and 51–62 with the full Key.Less, Shell sort 54–67, bottom-up
// merge of insertion-sorted runs 59–60, binary insertion 64–83 (a
// memmove per insert), slices.SortFunc 97–105.
func sortBucket(b []entry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for j > 0 && (e.node < b[j-1].node || e.node == b[j-1].node && e.pri < b[j-1].pri) {
			b[j] = b[j-1]
			j--
		}
		b[j] = e
	}
}

// pushOver adds a new entry to the 4-ary overflow heap.
func (q *Queue[E]) pushOver(e entry) {
	q.over = append(q.over, e)
	q.siftUp(len(q.over)-1, e)
}

// popOver removes and returns the overflow heap's minimum entry.
func (q *Queue[E]) popOver() entry {
	top := q.over[0]
	q.removeOver(0)
	return top
}

// removeOver deletes the overflow heap's entry at position i: the last
// entry fills the hole and sifts whichever way restores the heap.
func (q *Queue[E]) removeOver(i int) {
	n := len(q.over) - 1
	e := q.over[n]
	q.over = q.over[:n]
	if i == n {
		return
	}
	if i > 0 && e.less(q.over[(i-1)/4]) {
		q.siftUp(i, e)
	} else {
		q.siftDown(i, e)
	}
}

// siftUp moves e from hole c towards the root until its parent is not
// greater. The hole is moved rather than swapped, so each level costs
// one copy.
func (q *Queue[E]) siftUp(c int, e entry) {
	o := q.over
	for c > 0 {
		p := (c - 1) / 4
		if !e.less(o[p]) {
			break
		}
		o[c] = o[p]
		c = p
	}
	o[c] = e
}

// siftDown moves e from hole c towards the leaves until no child is
// less.
func (q *Queue[E]) siftDown(c int, e entry) {
	o := q.over
	n := len(o)
	for {
		first := 4*c + 1
		if first >= n {
			break
		}
		m := first
		for k, stop := first+1, min(first+4, n); k < stop; k++ {
			if o[k].less(o[m]) {
				m = k
			}
		}
		if !o[m].less(e) {
			break
		}
		o[c] = o[m]
		c = m
	}
	o[c] = e
}
