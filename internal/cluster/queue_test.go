package cluster

import (
	"math"
	"sort"
	"testing"

	"fuzzybarrier/internal/des"
)

// refQueue is the reference the event queue is checked against: every
// pending key in one slice, sorted by the canonical (at, node, pri)
// order whenever an answer is needed.
type refQueue struct{ evs []heapEntry }

func (r *refQueue) push(e heapEntry) { r.evs = append(r.evs, e) }

// head returns the minimum pending key, if any.
func (r *refQueue) head() (heapEntry, bool) {
	if len(r.evs) == 0 {
		return heapEntry{}, false
	}
	sort.Slice(r.evs, func(i, j int) bool { return keyLess(r.evs[i], r.evs[j]) })
	return r.evs[0], true
}

// nextBefore pops the minimum pending key if it is earlier than bound.
func (r *refQueue) nextBefore(bound int64) (heapEntry, bool) {
	e, ok := r.head()
	if !ok || e.at >= bound {
		return heapEntry{}, false
	}
	r.evs = r.evs[1:]
	return e, true
}

// TestFastEngineMatchesSortedReference drives fastEngine directly with
// seeded random scheduleAt programs and checks every answer against
// refQueue: pop order, nextAt, peekKey, empty, and that a bounded
// nextBefore never moves wheel time past its bound. The programs obey
// the producers' contract (nothing before wheel time; at the tick being
// dispatched, only keys above the last dispatched one) and are shaped
// to reach every queue path — the counters at the end prove they did.
func TestFastEngineMatchesSortedReference(t *testing.T) {
	var sameTick, dirtied, overflowed, jumps, boundStops int
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := des.NewRNG(des.Mix(seed, 0xE9))
		f := newFastEngine(&exec{s: &Sim{}})
		span := int64(len(f.wheel))
		ref := &refQueue{}
		var floor int64    // no later push may be earlier than this
		var last heapEntry // last dispatched key
		dispatched := false
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
			e := heapEntry{at: floor + delay, node: int32(rnd.IntN(8)), pri: uint64(rnd.IntN(1<<20))<<20 | uniq}
			if dispatched && e.at == last.at && !keyLess(last, e) {
				// A handler's zero-delay event: same node, higher priority.
				e.node, e.pri = last.node, (last.pri>>20+1+uint64(rnd.IntN(1<<10)))<<20|uniq
			}
			if e.at == f.wt && f.cursor > 0 {
				sameTick++
			}
			if e.at-f.wt >= span {
				overflowed++
			}
			wasDirty := f.dirty[e.at&f.hmask]
			f.scheduleAt(e.at, e.node, e.pri, evWork, 0, 0, Message{})
			if !wasDirty && f.dirty[e.at&f.hmask] {
				dirtied++
			}
			ref.push(e)
		}

		pop := func() {
			head, pending := ref.head()
			if at, ok := f.nextAt(); ok != pending || (ok && at != head.at) {
				t.Fatalf("seed %d: nextAt = (%d, %v), reference head (%d, %v)", seed, at, ok, head.at, pending)
			}
			bound := int64(math.MaxInt64)
			switch rnd.IntN(4) {
			case 0: // stops at the head's own tick
				bound = head.at
			case 1: // admits exactly the head's tick
				bound = head.at + 1
			case 2: // a window from the floor
				bound = floor + rnd.IntN(span/2)
			}
			if f.queued == 0 && len(f.over) > 0 {
				jumps++
			}
			wtBefore := f.wt
			want, ok := ref.nextBefore(bound)
			if k, peeked := f.peekKey(bound); peeked != ok || (ok && (k.at != want.at || k.node != want.node || k.pri != want.pri)) {
				t.Fatalf("seed %d: peekKey(%d) = (%+v, %v), reference (%+v, %v)", seed, bound, k, peeked, want, ok)
			}
			i := f.nextBefore(bound)
			if (i >= 0) != ok {
				t.Fatalf("seed %d: nextBefore(%d) = %d, reference has %+v (%v)", seed, bound, i, want, ok)
			}
			if f.empty() != (len(ref.evs) == 0) {
				t.Fatalf("seed %d: empty() = %v with %d reference events pending", seed, f.empty(), len(ref.evs))
			}
			if !ok {
				if f.wt > bound && f.wt != wtBefore {
					t.Fatalf("seed %d: nextBefore(%d) moved wheel time %d -> %d past the bound", seed, bound, wtBefore, f.wt)
				}
				if !f.empty() {
					boundStops++
					if bound > floor {
						floor = bound // a producer may rely on having seen time reach bound
					}
				}
				return
			}
			ev := f.arena[i]
			f.release(i)
			if ev.at != want.at || ev.node != want.node || ev.pri != want.pri {
				t.Fatalf("seed %d: popped (at=%d node=%d pri=%d), reference (at=%d node=%d pri=%d)",
					seed, ev.at, ev.node, ev.pri, want.at, want.node, want.pri)
			}
			last, dispatched, floor = want, true, want.at
		}

		for step := 0; step < 20000; step++ {
			// Lean towards pushing while small and popping while large,
			// so the queue both drains to empty and fills several ticks.
			if n := int64(len(ref.evs)); rnd.IntN(48) >= n {
				push()
			} else {
				pop()
			}
		}
		for len(ref.evs) > 0 {
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
