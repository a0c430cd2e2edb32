package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the oracle: every event in one slice, the next one found
// by sorting on (at, seq) with seq a global push counter.
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

func (r *refQueue) push(at int64, id int) {
	r.seq++
	r.evs = append(r.evs, refEvent{at, r.seq, id})
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

// delays covers every route into the queue: the current bucket, the
// near wheel, the last wheel tick, the first overflow tick, and far
// enough out that the wheel empties and time has to jump.
var delays = []int64{0, 0, 1, 2, 7, wheelSpan - 1, wheelSpan, wheelSpan + 1, 3*wheelSpan + 5, 40 * wheelSpan}

// TestQueueMatchesSortedReference drives random pushes and bounded pops
// through the queue and the oracle: same event, same verdict and same
// Now at every step.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var ref refQueue
		nextID := 0
		push := func() {
			at := q.Now() + delays[rnd.Intn(len(delays))]
			nextID++
			*q.Push(at) = nextID
			ref.push(at, nextID)
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
				got, ok := q.Pop(limit)
				want, wantOK := ref.pop(limit)
				if got != want || ok != wantOK || q.Now() != ref.now || q.Len() != len(ref.evs) {
					t.Fatalf("seed %d op %d: Pop(%d) = %d, %v at now %d with %d left; reference %d, %v at %d with %d",
						seed, op, limit, got, ok, q.Now(), q.Len(), want, wantOK, ref.now, len(ref.evs))
				}
			}
		}
	}
}

func TestQueueClearKeepsNow(t *testing.T) {
	var q Queue[int]
	*q.Push(5) = 1
	*q.Push(5 + 2*wheelSpan) = 2
	q.Pop(math.MaxInt64)
	q.Clear()
	if _, ok := q.Pop(math.MaxInt64); ok || q.Len() != 0 || q.Now() != 5 {
		t.Fatalf("after Clear: popped=%v len=%d now=%d, want an empty queue at 5", ok, q.Len(), q.Now())
	}
	*q.Push(6) = 3
	if got, ok := q.Pop(math.MaxInt64); !ok || got != 3 || q.Now() != 6 {
		t.Fatalf("push after Clear: got %d, %v at %d", got, ok, q.Now())
	}
}

// TestQueuePoppedSlotPinsNothing: a recycled slot must not keep what
// its last event pointed at alive, and Push must hand out a zero payload.
func TestQueuePoppedSlotPinsNothing(t *testing.T) {
	var q Queue[*int]
	*q.Push(1) = new(int)
	q.Pop(math.MaxInt64)
	for i, s := range q.arena {
		if s.ev != nil {
			t.Fatalf("arena slot %d still holds its payload after Pop", i)
		}
	}
	if p := q.Push(2); *p != nil {
		t.Fatal("Push returned a payload that is not zero")
	}
}

func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[[4]int64]
	cycle := func() {
		for _, d := range delays {
			q.Push(q.Now() + d)[0] = d
		}
		for range delays {
			q.Pop(math.MaxInt64)
		}
	}
	cycle() // reach the high-water mark
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per cycle", n)
	}
}
