package core

import (
	"sync"
	"testing"
)

// TestReduceBarrierSerialFold drives n participants from one goroutine
// (the last arrival of a phase completes it, so a serial driver works)
// and checks WaitValue against the serial fold for every canned
// operator, several tree shapes, and several phases.
func TestReduceBarrierSerialFold(t *testing.T) {
	ops := []struct {
		name     string
		op       ReduceOp
		identity int64
	}{
		{"sum", OpSum, IdentitySum},
		{"min", OpMin, IdentityMin},
		{"max", OpMax, IdentityMax},
		{"xor", OpXor, IdentityXor},
	}
	for _, o := range ops {
		for _, shape := range []struct{ n, radix int }{
			{1, 2}, {2, 2}, {4, 4}, {5, 2}, {9, 3}, {17, 4},
		} {
			b := NewReduceBarrierRadix(shape.n, shape.radix, o.op, o.identity)
			for phase := int64(0); phase < 5; phase++ {
				want := o.identity
				tickets := make([]Phase, shape.n)
				for id := 0; id < shape.n; id++ {
					v := int64(id*id) - 7*phase + int64(id%3)*1000
					want = o.op(want, v)
					tickets[id] = b.ArriveValue(v)
				}
				if b.Epoch() != phase+1 {
					t.Fatalf("%s n=%d: epoch = %d, want %d", o.name, shape.n, b.Epoch(), phase+1)
				}
				for id := 0; id < shape.n; id++ {
					if got := b.WaitValue(tickets[id]); got != want {
						t.Fatalf("%s n=%d radix=%d phase %d participant %d: WaitValue = %d, want %d",
							o.name, shape.n, shape.radix, phase, id, got, want)
					}
				}
			}
		}
	}
}

// TestReduceBarrierConcurrent checks the allreduce result against the
// serial fold with real goroutines racing their deposits up the tree.
func TestReduceBarrierConcurrent(t *testing.T) {
	const workers, phases = 8, 200
	b := NewReduceBarrierRadix(workers, 2, OpSum, IdentitySum)
	contrib := func(p, id int64) int64 { return (p+1)*100 + id*id }
	expect := make([]int64, phases)
	for p := range expect {
		acc := IdentitySum
		for id := 0; id < workers; id++ {
			acc = OpSum(acc, contrib(int64(p), int64(id)))
		}
		expect[p] = acc
	}
	var bad sync.Map
	if !runN(t, b.split(), workers, func(w int) {
		for p, id := int64(0), int64(w); p < phases; p++ {
			got := b.WaitValue(b.ArriveValue(contrib(p, id)))
			if got != expect[p] {
				bad.Store([2]int64{p, id}, got)
			}
		}
	}) {
		return
	}
	bad.Range(func(k, v any) bool {
		pk := k.([2]int64)
		t.Errorf("phase %d worker %d: WaitValue = %d, want %d", pk[0], pk[1], v, expect[pk[0]])
		return true
	})
	if b.Epoch() != phases {
		t.Errorf("epoch = %d, want %d", b.Epoch(), phases)
	}
}

// TestReduceBarrierMixedArrive mixes plain Arrive (identity
// contribution) with ArriveValue in the same phase: the fold must cover
// exactly the value-carrying arrivals.
func TestReduceBarrierMixedArrive(t *testing.T) {
	b := NewReduceBarrier(3, OpMax, IdentityMax)
	ph := b.ArriveValue(41)
	b.Arrive()
	b.ArriveValue(-5)
	if got := b.WaitValue(ph); got != 41 {
		t.Errorf("WaitValue = %d, want 41", got)
	}
	// A single-participant barrier is a pure round trip.
	one := NewReduceBarrier(1, OpSum, IdentitySum)
	if got := one.WaitValue(one.ArriveValue(123)); got != 123 {
		t.Errorf("WaitValue = %d, want 123", got)
	}
}

// TestReduceBarrierProbesDeterministic forces every arrival to the same
// home leaf via ArriveValueLeaf(0, ...): the i-th arrival of a phase
// pays exactly as many probes as there are already-full leaves before
// its slot, so per phase the probe total is sum over leaves j of
// j*quota(j) — checked exactly, along with the slot invariant that every
// node ends each phase at exactly quota*(phase+1) claims.
func TestReduceBarrierProbesDeterministic(t *testing.T) {
	const n, radix, phases = 10, 3, 4
	b := NewReduceBarrierRadix(n, radix, OpSum, IdentitySum)
	var perPhase int64
	pos := 0
	for j := 0; j < b.Leaves(); j++ {
		perPhase += int64(j) * b.nodes[j].quota
		pos += int(b.nodes[j].quota)
	}
	if pos != n {
		t.Fatalf("leaf quotas sum to %d, want %d", pos, n)
	}
	for p := int64(0); p < phases; p++ {
		var tickets []Phase
		want := IdentitySum
		for id := 0; id < n; id++ {
			v := int64(id) + p
			want += v
			tickets = append(tickets, b.ArriveValueLeaf(0, v))
		}
		if !b.TryWait(tickets[0]) {
			t.Fatalf("phase %d incomplete after all %d arrivals", p, n)
		}
		if got := b.WaitValue(tickets[0]); got != want {
			t.Fatalf("phase %d: WaitValue = %d, want %d", p, got, want)
		}
		if got, wantProbes := b.Probes(), (p+1)*perPhase; got != wantProbes {
			t.Errorf("after phase %d: Probes() = %d, want %d", p, got, wantProbes)
		}
		for i := range b.nodes {
			if got, wantSlots := b.nodes[i].done.Load(), b.nodes[i].quota*(p+1); got != wantSlots {
				t.Errorf("after phase %d: node %d done = %d, want %d", p, i, got, wantSlots)
			}
		}
	}
}

// TestReduceBarrierPanics: constructor and leaf-range validation.
func TestReduceBarrierPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("n<1", func() { NewReduceBarrier(0, OpSum, 0) })
	expectPanic("nil op", func() { NewReduceBarrier(2, nil, 0) })
	b := NewReduceBarrier(4, OpSum, 0)
	expectPanic("leaf<0", func() { b.ArriveValueLeaf(-1, 1) })
	expectPanic("leaf>=Leaves", func() { b.ArriveValueLeaf(b.Leaves(), 1) })
}

// TestReduceBarrierShape: the reduce tree reports the same geometry as
// the equivalent TreeBarrier (they share buildTreeShape).
func TestReduceBarrierShape(t *testing.T) {
	for _, tc := range []struct{ n, radix int }{{1, 2}, {7, 2}, {16, 4}, {100, 8}} {
		rb := NewReduceBarrierRadix(tc.n, tc.radix, OpSum, 0)
		tb := NewTreeBarrierRadix(tc.n, tc.radix)
		if rb.N() != tb.N() || rb.radix != tb.radix ||
			rb.Leaves() != tb.Leaves() || rb.Depth() != tb.Depth() {
			t.Errorf("n=%d radix=%d: reduce shape (n=%d r=%d leaves=%d depth=%d) != tree shape (n=%d r=%d leaves=%d depth=%d)",
				tc.n, tc.radix, rb.N(), rb.radix, rb.Leaves(), rb.Depth(),
				tb.N(), tb.radix, tb.Leaves(), tb.Depth())
		}
	}
}
