package core

import "testing"

func TestTreeBarrierShape(t *testing.T) {
	cases := []struct {
		n, radix      int
		leaves, depth int
	}{
		{1, 4, 1, 1},
		{4, 4, 1, 1},
		{5, 4, 2, 2},
		{16, 4, 4, 2},
		{17, 4, 5, 3},
		{64, 4, 16, 3},
		{8, 2, 4, 3},
		{1024, 4, 256, 5},
	}
	for _, c := range cases {
		b := NewTreeBarrierRadix(c.n, c.radix)
		if b.nLeaves != c.leaves {
			t.Errorf("Tree(%d,r%d): leaves = %d, want %d", c.n, c.radix, b.nLeaves, c.leaves)
		}
		if got := b.Depth(); got != c.depth {
			t.Errorf("Tree(%d,r%d): depth = %d, want %d", c.n, c.radix, got, c.depth)
		}
		// Leaf capacities must sum to exactly n (otherwise a phase either
		// completes early or never completes).
		var cap int64
		for i := 0; i < b.nLeaves; i++ {
			if b.nodes[i].quota < 1 {
				t.Errorf("Tree(%d,r%d): leaf %d quota %d < 1", c.n, c.radix, i, b.nodes[i].quota)
			}
			cap += b.nodes[i].quota
		}
		if cap != int64(c.n) {
			t.Errorf("Tree(%d,r%d): leaf capacity %d, want %d", c.n, c.radix, cap, c.n)
		}
		// Interior quotas must equal the actual child counts.
		children := make(map[int]int64)
		for i := range b.nodes {
			if p := b.nodes[i].parent; p >= 0 {
				children[p]++
			}
		}
		for p, got := range children {
			if b.nodes[p].quota != got {
				t.Errorf("Tree(%d,r%d): node %d quota %d, children %d", c.n, c.radix, p, b.nodes[p].quota, got)
			}
		}
		if b.N() != c.n || b.radix != c.radix {
			t.Errorf("Tree(%d,r%d): N/Radix = %d/%d", c.n, c.radix, b.N(), b.radix)
		}
	}
}

// TestTreeBarrierProbeUndoDeterministic drives every arrival to leaf 0
// via ArriveLeaf, so the probe path is exercised with a known answer:
// the i-th arrival of a phase probes past every already-full leaf before
// its slot, giving exactly sum over leaves j of j*quota(j) probes per
// phase, and the cumulative counters end each phase at exactly
// quota*(phase+1) — the overshoot-undo invariant with no slack.
func TestTreeBarrierProbeUndoDeterministic(t *testing.T) {
	const n, radix, phases = 11, 3, 5
	b := NewTreeBarrierRadix(n, radix)
	var perPhase, total int64
	for j := 0; j < b.Leaves(); j++ {
		perPhase += int64(j) * b.nodes[j].quota
		total += b.nodes[j].quota
	}
	if total != n {
		t.Fatalf("leaf quotas sum to %d, want %d", total, n)
	}
	for p := int64(0); p < phases; p++ {
		var ph Phase
		for id := 0; id < n; id++ {
			ph = b.ArriveLeaf(0)
		}
		if !b.TryWait(ph) {
			t.Fatalf("phase %d incomplete after all %d arrivals", p, n)
		}
		if got, want := b.Probes(), (p+1)*perPhase; got != want {
			t.Errorf("after phase %d: Probes() = %d, want %d", p, got, want)
		}
		for i := range b.nodes {
			if got, want := b.nodes[i].count.Load(), b.nodes[i].quota*(p+1); got != want {
				t.Errorf("after phase %d: node %d count = %d, want exactly %d", p, i, got, want)
			}
		}
	}
	if b.Epoch() != phases {
		t.Errorf("epoch = %d, want %d", b.Epoch(), phases)
	}
}

// TestTreeBarrierArriveLeafPanics: leaf-range validation.
func TestTreeBarrierArriveLeafPanics(t *testing.T) {
	b := NewTreeBarrier(8)
	for _, leaf := range []int{-1, b.Leaves()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ArriveLeaf(%d): expected panic", leaf)
				}
			}()
			b.ArriveLeaf(leaf)
		}()
	}
}
