package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the FIFO oracle: every event in one slice, the next one
// found by sorting on (at, seq) with seq a global push counter.
type refQueue struct {
	now int64
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  int64
	seq uint64
	id  int
}

func (r *refQueue) push(at int64, id int) uint64 {
	r.seq++
	r.evs = append(r.evs, refEvent{at, r.seq, id})
	return r.seq
}

func (r *refQueue) pop(limit int64) (int, bool) {
	sort.Slice(r.evs, func(i, j int) bool {
		a, b := r.evs[i], r.evs[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	if len(r.evs) == 0 || r.evs[0].at > limit {
		return 0, false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	r.now = ev.at
	return ev.id, true
}

// testSpan is the wheel NewQueue(0) builds; delays covers every route
// into it: the current bucket, the near wheel, the last wheel tick, the
// first overflow tick, and far enough out that the wheel empties and
// time has to jump.
const testSpan = minSpan

var delays = []int64{0, 0, 1, 2, 7, testSpan - 1, testSpan, testSpan + 1, 3*testSpan + 5, 40 * testSpan}

// TestQueueMatchesSortedReference is the FIFO case: a producer that
// passes its push counter as Pri gets push order within a tick. Random
// pushes and bounded pops go through the queue and the oracle: same
// event, same verdict and same Now at every step.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := NewQueue[int](0)
		var ref refQueue
		nextID := 0
		push := func() {
			at := q.Now() + delays[rnd.Intn(len(delays))]
			nextID++
			*q.Push(Key{At: at, Pri: ref.push(at, nextID)}) = nextID
		}
		for op := 0; op < 4000; op++ {
			switch r := rnd.Intn(10); {
			case r < 4 || (op < 3000 && q.Len() == 0):
				for n := rnd.Intn(4); n >= 0; n-- {
					push()
				}
			default:
				limit := int64(math.MaxInt64)
				if rnd.Intn(3) == 0 {
					limit = q.Now() + delays[rnd.Intn(len(delays))] - 1 // may fall short, or behind Now
				}
				_, got, ok := q.Pop(limit)
				want, wantOK := ref.pop(limit)
				if got != want || ok != wantOK || q.Now() != ref.now || q.Len() != len(ref.evs) {
					t.Fatalf("seed %d op %d: Pop(%d) = %d, %v at now %d with %d left; reference %d, %v at %d with %d",
						seed, op, limit, got, ok, q.Now(), q.Len(), want, wantOK, ref.now, len(ref.evs))
				}
			}
		}
	}
}

// keyedRef is the keyed oracle: every pending key in one slice, sorted
// by Key.Less whenever an answer is needed. An event's payload is its
// key's low Pri bits, which the programs keep unique.
type keyedRef struct{ keys []Key }

// head returns the minimum pending key, if any.
func (r *keyedRef) head() (Key, bool) {
	if len(r.keys) == 0 {
		return Key{}, false
	}
	sort.Slice(r.keys, func(i, j int) bool { return r.keys[i].Less(r.keys[j]) })
	return r.keys[0], true
}

// pop removes the minimum pending key if its time is at most limit.
func (r *keyedRef) pop(limit int64) (Key, bool) {
	k, ok := r.head()
	if !ok || k.At > limit {
		return Key{}, false
	}
	r.keys = r.keys[1:]
	return k, true
}

// TestQueueMatchesKeyedReference drives the queue with seeded random
// keyed programs and checks every answer against keyedRef: pop order
// and payload, Peek, NextAt, Len, and that a bounded Pop never moves
// Now past its limit and leaves it alone when nothing is due. The
// programs obey the producers' contract (nothing before Now; at Now
// only keys above the last one popped) and are shaped to reach every
// queue path — the counters at the end prove they did.
func TestQueueMatchesKeyedReference(t *testing.T) {
	var sameTick, dirtied, overflowed, jumps, boundStops int
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := NewRNG(Mix(seed, 0xE9))
		q := NewQueue[uint64](testSpan - 1) // delays below testSpan stay on the wheel
		span := int64(testSpan)
		ref := &keyedRef{}
		var last Key // last popped key
		popped := false
		var uniq uint64 // low priority bits: keys never tie

		push := func() {
			var delay int64
			switch rnd.IntN(4) {
			case 0: // the tick being dispatched
			case 1, 2: // inside the wheel
				delay = 1 + rnd.IntN(span-1)
			default: // beyond it: the overflow heap
				delay = span + rnd.IntN(4*span)
			}
			uniq++
			k := Key{At: q.Now() + delay, Node: int32(rnd.IntN(8)), Pri: uint64(rnd.IntN(1<<20))<<20 | uniq}
			if popped && !last.Less(k) {
				// A handler's zero-delay event: same node, higher priority.
				k.Node, k.Pri = last.Node, (last.Pri>>20+1+uint64(rnd.IntN(1<<10)))<<20|uniq
			}
			if k.At == q.now && q.cursor > 0 {
				sameTick++
			}
			if k.At-q.now >= span {
				overflowed++
			}
			wasDirty := q.dirty[k.At&q.mask]
			*q.Push(k) = uniq
			if !wasDirty && q.dirty[k.At&q.mask] {
				dirtied++
			}
			ref.keys = append(ref.keys, k)
		}

		pop := func() {
			head, pending := ref.head()
			if at, ok := q.NextAt(); ok != pending || (ok && at != head.At) {
				t.Fatalf("seed %d: NextAt = (%d, %v), reference head (%d, %v)", seed, at, ok, head.At, pending)
			}
			limit := int64(math.MaxInt64)
			switch rnd.IntN(4) {
			case 0: // stops just short of the head's tick
				limit = head.At - 1
			case 1: // admits exactly the head's tick
				limit = head.At
			case 2: // a window from Now; may end behind Now
				limit = q.Now() + rnd.IntN(span/2) - 1
			}
			jump := q.queued == 0 && len(q.over) > 0
			nowBefore := q.Now()
			want, ok := ref.pop(limit)
			if k, peeked := q.Peek(limit); peeked != ok || k != want {
				t.Fatalf("seed %d: Peek(%d) = (%+v, %v), reference (%+v, %v)", seed, limit, k, peeked, want, ok)
			}
			k, ev, got := q.Pop(limit)
			if got != ok || k != want || ev != want.Pri&(1<<20-1) {
				t.Fatalf("seed %d: Pop(%d) = (%+v, %d, %v), reference (%+v, %v)", seed, limit, k, ev, got, want, ok)
			}
			if q.Len() != len(ref.keys) {
				t.Fatalf("seed %d: Len() = %d with %d reference events pending", seed, q.Len(), len(ref.keys))
			}
			if !ok {
				if q.Now() != nowBefore {
					t.Fatalf("seed %d: Pop(%d) found nothing due and moved Now %d -> %d", seed, limit, nowBefore, q.Now())
				}
				if q.Len() > 0 {
					boundStops++
				}
				return
			}
			if q.Now() != want.At || q.Now() > limit {
				t.Fatalf("seed %d: Pop(%d) of %+v left Now at %d", seed, limit, want, q.Now())
			}
			if jump {
				jumps++
			}
			last, popped = want, true
		}

		for step := 0; step < 20000; step++ {
			// Lean towards pushing while small and popping while large,
			// so the queue both drains to empty and fills several ticks.
			if n := int64(len(ref.keys)); rnd.IntN(48) >= n {
				push()
			} else {
				pop()
			}
		}
		for len(ref.keys) > 0 {
			pop()
		}
		pop() // both sides agree the drained queue has nothing left
	}
	for name, n := range map[string]int{
		"same-tick inserts behind the cursor":     sameTick,
		"out-of-order arrivals dirtying a bucket": dirtied,
		"overflow-heap pushes":                    overflowed,
		"empty-wheel jumps":                       jumps,
		"stops at a bound":                        boundStops,
	} {
		if n == 0 {
			t.Errorf("the programs never produced %s", name)
		}
	}
}

func TestQueueClearKeepsNow(t *testing.T) {
	q := NewQueue[int](0)
	*q.Push(Key{At: 5}) = 1
	*q.Push(Key{At: 5 + 2*testSpan}) = 2
	q.Pop(math.MaxInt64)
	q.Clear()
	if _, _, ok := q.Pop(math.MaxInt64); ok || q.Len() != 0 || q.Now() != 5 {
		t.Fatalf("after Clear: popped=%v len=%d now=%d, want an empty queue at 5", ok, q.Len(), q.Now())
	}
	*q.Push(Key{At: 6}) = 3
	if _, got, ok := q.Pop(math.MaxInt64); !ok || got != 3 || q.Now() != 6 {
		t.Fatalf("push after Clear: got %d, %v at %d", got, ok, q.Now())
	}
}

// TestQueuePoppedSlotPinsNothing: a recycled slot must not keep what
// its last event pointed at alive, and Push must hand out a zero payload.
func TestQueuePoppedSlotPinsNothing(t *testing.T) {
	q := NewQueue[*int](0)
	*q.Push(Key{At: 1}) = new(int)
	q.Pop(math.MaxInt64)
	for i, s := range q.arena {
		if s.ev != nil {
			t.Fatalf("arena slot %d still holds its payload after Pop", i)
		}
	}
	if p := q.Push(Key{At: 2}); *p != nil {
		t.Fatal("Push returned a payload that is not zero")
	}
}

func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := NewQueue[[4]int64](0)
	var seq uint64
	cycle := func() {
		for _, d := range delays {
			seq++
			q.Push(Key{At: q.Now() + d, Pri: seq})[0] = d
		}
		for range delays {
			q.Pop(math.MaxInt64)
		}
	}
	// Reach the high-water mark: the arena's, the overflow heap's and —
	// each cycle ends 40 spans on, so lands on the same buckets — that
	// of every bucket a cycle touches.
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per cycle", n)
	}
}
