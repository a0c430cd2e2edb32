// Package des is the discrete-event kernel under transport.SimNet: a
// time-ordered queue of typed events that dispatches in (time, push
// order) and allocates nothing in steady state. It knows nothing about
// networks or endpoints — the event payload is a type parameter — so
// other simulators (internal/cluster's engine) can move onto it. The
// seeded RNG both simulators draw from lives here too (rng.go).
package des

import "fmt"

// wheelSpan is the calendar wheel's bucket count, a power of two. A
// push further out than this goes through the overflow heap instead:
// correct, merely slower.
const (
	wheelSpan = 2048
	wheelMask = wheelSpan - 1
)

// Queue holds events of type E until their time comes. Pop returns them
// ordered by time, and events of one time in the order they were pushed
// — the order a heap keyed (time, global push sequence) would give.
//
// Three parts. The arena is a flat slice of slots recycled through a
// free list, so a push allocates only until the run's high-water mark
// is reached and a popped slot is zeroed before reuse (it pins nothing
// E points at). The wheel holds one FIFO per tick for the times in
// [now, now+wheelSpan), threaded through the slots' next links; two
// such times cannot share a bucket, so a bucket holds one time's events
// and appending to it keeps them in push order. The overflow heap,
// keyed (time, push sequence), holds events at or beyond now+wheelSpan
// and is drained into the wheel every time now advances.
//
// Why per-tick FIFO equals (time, sequence) order although events reach
// a bucket by two routes: a push for time T goes to the overflow heap
// iff now <= T-wheelSpan at that moment, and now never decreases — so
// every overflow push for T precedes every direct push for T. The drain
// runs inside the Pop that first brings now within wheelSpan of T,
// before the popped event's handler can push anything, and moves T's
// overflow events in sequence order into a bucket that is empty of
// later times. Direct pushes then append behind them.
//
// The zero Queue is empty at time 0. Slot index 0 is a sentinel that
// stands for "none" in every link, which is what makes the zero value
// of the wheel an empty wheel.
type Queue[E any] struct {
	now   int64
	n     int // events queued, wheel and overflow together
	arena []slot[E]
	free  int32 // free-list head
	seq   uint64
	over  []overEntry // binary min-heap on (at, seq)
	wheel [wheelSpan]bucket
}

type slot[E any] struct {
	at   int64
	next int32 // next event of the same bucket, or next free slot
	ev   E
}

// bucket is one tick's FIFO; tail is meaningful only while head != 0.
type bucket struct{ head, tail int32 }

// overEntry keys one far-future event; the heap moves these, not slots.
type overEntry struct {
	at  int64
	seq uint64
	idx int32
}

// Now returns the time of the last popped event (0 before the first).
func (q *Queue[E]) Now() int64 { return q.now }

// Len returns the number of queued events.
func (q *Queue[E]) Len() int { return q.n }

// Push queues an event for time at, which must not precede Now, and
// returns its payload — zero — for the caller to fill in. The pointer
// is into the arena: it is good until the next call on the queue.
func (q *Queue[E]) Push(at int64) *E {
	if at < q.now {
		panic(fmt.Sprintf("des: event pushed into the past (at=%d, now=%d)", at, q.now))
	}
	i := q.free
	if i != 0 {
		q.free = q.arena[i].next
	} else {
		if len(q.arena) == 0 {
			q.arena = append(q.arena, slot[E]{}) // the sentinel
		}
		q.arena = append(q.arena, slot[E]{})
		i = int32(len(q.arena) - 1)
	}
	s := &q.arena[i]
	s.at, s.next = at, 0
	q.n++
	if at-q.now < wheelSpan {
		q.link(i)
	} else {
		q.seq++
		q.pushOver(overEntry{at: at, seq: q.seq, idx: i})
	}
	return &s.ev
}

// link appends slot i to the FIFO of its time's bucket.
func (q *Queue[E]) link(i int32) {
	b := &q.wheel[q.arena[i].at&wheelMask]
	if b.head == 0 {
		b.head = i
	} else {
		q.arena[b.tail].next = i
	}
	b.tail = i
}

// Pop removes and returns the earliest event if its time is at most
// limit, advancing Now to that time. ok is false when the queue is
// empty or its earliest event lies beyond limit; Now is then unchanged,
// so a caller may still push at any time from Now on.
func (q *Queue[E]) Pop(limit int64) (ev E, ok bool) {
	if q.now > limit {
		return ev, false
	}
	if q.wheel[q.now&wheelMask].head == 0 && !q.advance(limit) {
		return ev, false
	}
	b := &q.wheel[q.now&wheelMask]
	i := b.head
	s := &q.arena[i]
	b.head = s.next
	ev = s.ev
	*s = slot[E]{next: q.free}
	q.free = i
	q.n--
	return ev, true
}

// advance moves now to the earliest queued time, if there is one no
// later than limit, and drains the overflow events the move brought
// within the wheel's span. The current bucket is empty on entry.
func (q *Queue[E]) advance(limit int64) bool {
	t := q.now
	switch {
	case q.n > len(q.over):
		// Something is on the wheel, so within wheelSpan of now, and
		// everything on the overflow heap is later than that.
		for t++; q.wheel[t&wheelMask].head == 0; t++ {
		}
	case q.n > 0:
		t = q.over[0].at // empty wheel: jump, do not walk
	default:
		return false
	}
	if t > limit {
		return false
	}
	q.now = t
	for len(q.over) > 0 && q.over[0].at-t < wheelSpan {
		q.link(q.popOver())
	}
	return true
}

// Clear discards every queued event and keeps Now.
func (q *Queue[E]) Clear() {
	clear(q.arena) // drop what the events point at
	*q = Queue[E]{now: q.now, arena: q.arena[:0], over: q.over[:0]}
}

func (a overEntry) less(b overEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushOver sifts e up; the hole moves, so each level is one copy.
func (q *Queue[E]) pushOver(e overEntry) {
	q.over = append(q.over, e)
	o := q.over
	c := len(o) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !e.less(o[p]) {
			break
		}
		o[c] = o[p]
		c = p
	}
	o[c] = e
}

// popOver removes the overflow minimum and returns its slot index.
func (q *Queue[E]) popOver() int32 {
	o := q.over
	top := o[0].idx
	e := o[len(o)-1]
	o = o[:len(o)-1]
	q.over = o
	p := 0
	for {
		c := 2*p + 1
		if c >= len(o) {
			break
		}
		if c+1 < len(o) && o[c+1].less(o[c]) {
			c++
		}
		if !o[c].less(e) {
			break
		}
		o[p] = o[c]
		p = c
	}
	if len(o) > 0 {
		o[p] = e
	}
	return top
}
