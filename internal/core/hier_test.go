package core

import (
	"runtime"
	"testing"
)

func TestHierBarrierShape(t *testing.T) {
	cases := []struct {
		n, shards, radix int
		leaves, depth    int
	}{
		{1, 1, 4, 1, 2},      // single-leaf shard + single cross node
		{4, 1, 4, 1, 2},      // one shard absorbs all four
		{8, 2, 4, 2, 2},      // one leaf per shard; cross tree is one node
		{16, 4, 4, 4, 2},     // one leaf per shard feeding one cross node
		{17, 4, 4, 5, 3},     // quotas 5,4,4,4: shard 0 grows a 2-leaf subtree
		{64, 4, 4, 16, 3},    // 16 per shard: 4 leaves + shard root + cross node
		{11, 3, 2, 6, 4},     // quotas 4,4,3 at radix 2: two cross levels
		{1024, 8, 4, 256, 6}, // 128 per shard: 3 subtree levels + 2 cross levels
	}
	for _, c := range cases {
		b := NewHierBarrierConfig(c.n, HierConfig{Shards: c.shards, Radix: c.radix})
		if b.Shards() != c.shards {
			t.Errorf("Hier(%d,s%d,r%d): shards = %d, want %d", c.n, c.shards, c.radix, b.Shards(), c.shards)
		}
		if got := b.Leaves(); got != c.leaves {
			t.Errorf("Hier(%d,s%d,r%d): leaves = %d, want %d", c.n, c.shards, c.radix, got, c.leaves)
		}
		// Shard quotas must be balanced (max-min <= 1) and sum to n; leaf
		// quotas within each shard must sum to the shard quota.
		var total int64
		min, max := b.shards[0].quota, b.shards[0].quota
		for s := range b.shards {
			q := b.shards[s].quota
			total += q
			if q < min {
				min = q
			}
			if q > max {
				max = q
			}
			var leafCap int64
			for j := 0; j < b.shards[s].nLeaves; j++ {
				lq := b.nodes[b.shards[s].leafBase+j].quota
				if lq < 1 {
					t.Errorf("Hier(%d,s%d,r%d): shard %d leaf %d quota %d < 1", c.n, c.shards, c.radix, s, j, lq)
				}
				leafCap += lq
			}
			if leafCap != q {
				t.Errorf("Hier(%d,s%d,r%d): shard %d leaf capacity %d, want %d", c.n, c.shards, c.radix, s, leafCap, q)
			}
		}
		if total != int64(c.n) {
			t.Errorf("Hier(%d,s%d,r%d): shard quotas sum to %d, want %d", c.n, c.shards, c.radix, total, c.n)
		}
		if max-min > 1 {
			t.Errorf("Hier(%d,s%d,r%d): shard quotas unbalanced: min %d max %d", c.n, c.shards, c.radix, min, max)
		}
		// Every interior node's quota must equal its actual child count,
		// counting each shard subtree root as a child of its cross-tree
		// leaf. Exactly one node (the cross-tree root) has parent -1.
		children := make(map[int]int64)
		roots := 0
		for i := range b.nodes {
			if p := b.nodes[i].parent; p >= 0 {
				children[p]++
			} else {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("Hier(%d,s%d,r%d): %d parentless nodes, want 1", c.n, c.shards, c.radix, roots)
		}
		for p, got := range children {
			if b.nodes[p].quota != got {
				t.Errorf("Hier(%d,s%d,r%d): node %d quota %d, children %d", c.n, c.shards, c.radix, p, b.nodes[p].quota, got)
			}
		}
		if got := b.Depth(); got != c.depth {
			t.Errorf("Hier(%d,s%d,r%d): depth = %d, want %d", c.n, c.shards, c.radix, got, c.depth)
		}
		if b.N() != c.n || b.radix != c.radix {
			t.Errorf("Hier(%d,s%d,r%d): N/Radix = %d/%d", c.n, c.shards, c.radix, b.N(), b.radix)
		}
		if len(b.rel) != c.shards {
			t.Errorf("Hier(%d,s%d,r%d): %d release words, want %d", c.n, c.shards, c.radix, len(b.rel), c.shards)
		}
	}
}

// TestHierBarrierDerivedLayout checks the GOMAXPROCS derivation: shard
// count min(GOMAXPROCS, n), radix DefaultTreeRadix widened so the
// cross-shard tree stays at two levels.
func TestHierBarrierDerivedLayout(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	b := NewHierBarrier(4096)
	want := procs
	if want > 4096 {
		want = 4096
	}
	if b.Shards() != want {
		t.Errorf("shards = %d, want min(GOMAXPROCS=%d, n)", b.Shards(), procs)
	}
	if b.radix < DefaultTreeRadix {
		t.Errorf("radix = %d, want >= %d", b.radix, DefaultTreeRadix)
	}
	if b.radix*b.radix < b.Shards() {
		t.Errorf("radix %d too narrow for %d shards (cross tree deeper than 2 levels)", b.radix, b.Shards())
	}
	// Shards never exceed n, even when the host is wider than the group.
	if got := NewHierBarrier(2).Shards(); got > 2 {
		t.Errorf("Hier(2): shards = %d, want <= 2", got)
	}
}

// TestHierBarrierProbeUndoDeterministic drives every arrival to shard 0
// leaf 0 via ArriveShardLeaf, so the whole probe cascade runs with a
// known answer: within a shard the i-th leaf's arrivals probe past every
// already-full leaf before it, a spilled arrival skips each full shard
// with exactly one root probe, serial arrivals never overshoot (zero
// undos), and the cumulative counters end each phase at exactly
// quota·(phase+1).
func TestHierBarrierProbeUndoDeterministic(t *testing.T) {
	const n, shards, radix, phases = 11, 3, 2, 5
	b := NewHierBarrierConfig(n, HierConfig{Shards: shards, Radix: radix})
	// Per-phase expected probes, from the layout: an arrival claiming
	// shard s, local leaf j first skips shards 0..s-1 (1 root probe each,
	// since the earlier shards are completely full and climbed by the
	// time a serial driver spills) and probes the j full leaves before
	// its own.
	var perPhase int64
	for s := range b.shards {
		perPhase += int64(s) * b.shards[s].quota // root skips to reach shard s
		for j := 0; j < b.shards[s].nLeaves; j++ {
			perPhase += int64(j) * b.nodes[b.shards[s].leafBase+j].quota
		}
	}
	for p := int64(0); p < phases; p++ {
		var ph Phase
		for id := 0; id < n; id++ {
			ph = b.ArriveShardLeaf(0, 0)
		}
		if !b.TryWait(ph) {
			t.Fatalf("phase %d incomplete after all %d arrivals", p, n)
		}
		if got, want := b.Probes(), (p+1)*perPhase; got != want {
			t.Errorf("after phase %d: Probes() = %d, want %d", p, got, want)
		}
		if got := b.Undos(); got != 0 {
			t.Errorf("after phase %d: Undos() = %d, want 0 (serial arrivals never overshoot)", p, got)
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

// TestHierBarrierArriveDuringReleaseFanout hammers the release edge: a
// waiter released through its shard's epoch word may re-Arrive while
// the publisher is still CAS-maxing the remaining shards' words. The
// publish-before-fan-out order must hand it a fresh epoch (a stale one
// would spin through a fully-claimed phase), and the monotone CAS must
// survive two overlapping publishers. SpinLimit 1 steers Waits onto
// every slow-path flavor at the same time.
func TestHierBarrierArriveDuringReleaseFanout(t *testing.T) {
	const workers, phases = 8, 1500
	b := NewHierBarrierConfig(workers, HierConfig{Shards: workers, Radix: 2})
	b.SpinLimit = 1
	if !runN(t, b.split(), workers, func(id int) {
		for p := 0; p < phases; p++ {
			// One worker per shard: each phase's last climber fans out
			// while the other seven race straight into the next Arrive.
			b.Wait(b.ArriveShardLeaf(id, 0))
		}
	}) {
		return
	}
	if got := b.Epoch(); got != phases {
		t.Errorf("epoch = %d, want %d", got, phases)
	}
	// Every shard's release word must have caught up to the final epoch.
	for s := range b.rel {
		if got := b.rel[s].epoch.Load(); got != phases {
			t.Errorf("shard %d release word = %d, want %d", s, got, phases)
		}
	}
}

// TestHierBarrierSlotFor: routing participant i to SlotFor(i) fills
// every leaf to exactly its quota — no probes, no undos.
func TestHierBarrierSlotFor(t *testing.T) {
	const n = 23
	b := NewHierBarrierConfig(n, HierConfig{Shards: 4, Radix: 3})
	var ph Phase
	for i := 0; i < n; i++ {
		s, l := b.SlotFor(i)
		ph = b.ArriveShardLeaf(s, l)
	}
	if !b.TryWait(ph) {
		t.Fatal("phase incomplete after every slot arrived")
	}
	if b.Probes() != 0 || b.Undos() != 0 {
		t.Errorf("probes=%d undos=%d after balanced routing, want 0/0", b.Probes(), b.Undos())
	}
	for s := range b.shards {
		for j := 0; j < b.shards[s].nLeaves; j++ {
			nd := &b.nodes[b.shards[s].leafBase+j]
			if nd.count.Load() != nd.quota {
				t.Errorf("shard %d leaf %d count = %d, want quota %d", s, j, nd.count.Load(), nd.quota)
			}
		}
	}
	if b.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", b.Epoch())
	}
}

// TestHierBarrierArrivePanics: shard/leaf/slot range validation.
func TestHierBarrierArrivePanics(t *testing.T) {
	b := NewHierBarrierConfig(8, HierConfig{Shards: 2, Radix: 2})
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("shard -1", func() { b.ArriveShardLeaf(-1, 0) })
	expectPanic("shard high", func() { b.ArriveShardLeaf(b.Shards(), 0) })
	expectPanic("leaf -1", func() { b.ArriveShardLeaf(0, -1) })
	expectPanic("leaf high", func() { b.ArriveShardLeaf(0, b.shards[0].nLeaves) })
	expectPanic("slot -1", func() { b.SlotFor(-1) })
	expectPanic("slot high", func() { b.SlotFor(b.N()) })
}
