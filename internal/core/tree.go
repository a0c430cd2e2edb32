package core

import (
	"fmt"
	"sync/atomic"
)

// TreeBarrier is a combining-tree fuzzy barrier: the same split-phase
// Arrive/Wait contract as FuzzyBarrier, but arrivals are counted up a
// radix-k tree of cache-line-padded counters instead of one central
// counter. No single memory word receives more than ~k atomic operations
// per phase, so the arrival phase stops being the hot spot the paper's
// Section 1 charges software barriers with; departure stays a single
// read-shared epoch broadcast. Among the logarithmic barriers this is
// the one that cleanly supports the fuzzy arrive/depart split — the
// dissemination and tournament baselines interleave their signal rounds
// with waiting, so they cannot return from Arrive without blocking.
//
// Participants are anonymous (Arrive takes no id, exactly like
// FuzzyBarrier), so arrivals route themselves: each Arrive hashes the
// caller's stack address to a home leaf and claims a slot there, probing
// to the neighbor leaf when its home is already full for the phase.
// Distinct goroutines live on distinct stacks, so a stable group of
// workers spreads across leaves and keeps re-hitting its own (cache-warm)
// leaf every phase.
//
// Counters are cumulative across phases — node n's target for phase e is
// quota·(e+1) — which removes the reset step entirely: there is nothing
// to reset, so there is no reset/next-arrival race and no spinning
// anywhere in Arrive. The filling arrival of a node propagates one token
// to its parent; whoever completes the root publishes the epoch.
type TreeBarrier struct {
	combTree
	splitCore
}

// DefaultTreeRadix is the fan-in used by NewTreeBarrier.
const DefaultTreeRadix = 4

// combTree is the radix-k combining tree under TreeBarrier,
// ReduceBarrier and HierBarrier: cache-line-padded cumulative counters
// linked leaf-to-root, in one flat slice. TreeBarrier and ReduceBarrier
// hold a single tree whose leaves are nodes[:nLeaves]; HierBarrier
// holds one subtree per shard plus the cross-shard tree their roots
// feed.
type combTree struct {
	n, radix int
	nLeaves  int // leaves participants claim slots on, over every subtree
	nodes    []combNode
}

// combNode is one node of a combining tree, padded to two cache lines
// so neighboring nodes never false-share (the second line defeats the
// adjacent-line prefetcher). It carries every lane any of the three
// barriers uses — ReduceBarrier is TreeBarrier plus a payload lane.
type combNode struct {
	count  atomic.Int64 // cumulative tokens, quota per phase: slot claims on a leaf, one per filled child above
	done   atomic.Int64 // ReduceBarrier: cumulative finished deposits, combine-then-increment
	acc    atomic.Int64 // ReduceBarrier: partial reduction for the phase in progress
	probes atomic.Int64 // arrivals that found this node full and moved on (HierBarrier: by a read)
	undos  atomic.Int64 // HierBarrier: overshoot add+undo pairs charged to this node
	quota  int64        // tokens that complete this node for one phase
	parent int          // index of parent node, -1 at the root
	leaf   bool         // participants claim slots here
	_      [71]byte
}

// grow appends a radix-k combining subtree over n tokens — leaves
// first, then interior levels bottom-up, root last with parent -1 — and
// returns its first leaf, its leaf count and its root. Leaf per-phase
// capacities sum to exactly n (the last leaf may be partial) and each
// interior node's quota is its child count. claimed says participants
// claim slots on the leaves (HierBarrier's cross-shard tree is fed by
// shard roots instead).
func (t *combTree) grow(n int, claimed bool) (base, nLeaves, root int) {
	// level appends the nodes that absorb `tokens` tokens per phase.
	level := func(tokens int, leaf bool) (first, width int) {
		first, width = len(t.nodes), (tokens+t.radix-1)/t.radix
		for i := 0; i < width; i++ {
			q := t.radix
			if i == width-1 {
				q = tokens - t.radix*(width-1)
			}
			t.nodes = append(t.nodes, combNode{quota: int64(q), parent: -1, leaf: leaf})
		}
		return first, width
	}
	base, nLeaves = level(n, claimed)
	if claimed {
		t.nLeaves += nLeaves
	}
	first, width := base, nLeaves
	for width > 1 {
		up, w := level(width, false)
		for i := 0; i < width; i++ {
			t.nodes[first+i].parent = up + i/t.radix
		}
		first, width = up, w
	}
	return base, nLeaves, first
}

// N returns the number of participants.
func (t *combTree) N() int { return t.n }

// Radix returns the combining fan-in.
func (t *combTree) Radix() int { return t.radix }

// Leaves returns the number of leaf counters participants arrive on.
func (t *combTree) Leaves() int { return t.nLeaves }

// Depth returns the number of counter levels above a participant — the
// arrival critical path in atomic operations (for HierBarrier the
// deepest shard subtree plus the cross-shard tree).
func (t *combTree) Depth() int {
	max := 0
	for i := range t.nodes {
		d := 0
		for node := i; node >= 0; node = t.nodes[node].parent {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Probes returns the number of arrive-side probes that found their
// leaf (or, in HierBarrier, a whole shard via its root) already full
// and moved on — the routing cost of anonymity. A TreeBarrier or
// ReduceBarrier probe is an add+undo write pair on the full leaf; a
// HierBarrier probe is one coherence-quiet atomic load.
func (t *combTree) Probes() int64 {
	var total int64
	for i := range t.nodes {
		total += t.nodes[i].probes.Load()
	}
	return total
}

// arrivals derives the Arrive count from state the arrivals themselves
// keep: leaf counts are cumulative and every Arrive claims exactly one
// leaf slot (an in-flight overshoot is counted until its undo lands).
func (t *combTree) arrivals() int64 {
	var total int64
	for i := range t.nodes {
		if t.nodes[i].leaf {
			total += t.nodes[i].count.Load()
		}
	}
	return total
}

// claim takes one slot of phase `target` by add-and-undo, starting at
// the caller's home leaf and probing onward round the single tree's
// leaves while they are full (HierBarrier probes its shards by
// test-and-test-and-set instead — E20 compares the two disciplines); it
// returns the leaf claimed and whether the claim filled it. Total leaf
// capacity is exactly n, so a free slot exists. Once a leaf's count
// reaches its phase target it never dips below it (every undo cancels
// its own overshoot), so the exact target value is returned to exactly
// one arrival. Claiming touches only the ticket counter, so undoing an
// overshoot never has to un-combine a value — which ReduceBarrier's
// min/max could not support.
func (t *combTree) claim(leaf int, target int64) (at int, filled bool) {
	for {
		nd := &t.nodes[leaf]
		full := nd.quota * target
		if v := nd.count.Add(1); v <= full {
			return leaf, v == full
		}
		nd.count.Add(-1)
		nd.probes.Add(1)
		leaf++
		if leaf == t.nLeaves {
			leaf = 0
		}
	}
}

// climb propagates one completion token upward from the given node and
// reports whether it completed the root — the arrival that does
// publishes the phase. Interior nodes receive exactly quota tokens per
// phase (one per child, or per shard), so no overshoot handling is
// needed above the leaves.
func (t *combTree) climb(node int, target int64) bool {
	for node >= 0 {
		nd := &t.nodes[node]
		if nd.count.Add(1) != nd.quota*target {
			return false
		}
		node = nd.parent
	}
	return true
}

// homeLeaf reduces the caller's ShardHint to a leaf index in
// [0, nLeaves): the shared splitmix64-over-stack-address routing scheme,
// audited once in shard.go and used by TreeBarrier, ReduceBarrier and
// HierBarrier alike. High bits are used so homeLeaf and HierBarrier's
// shard selection (low bits) stay decorrelated.
func homeLeaf(nLeaves int) int {
	return int((ShardHint() >> 32) % uint64(nLeaves))
}

// NewTreeBarrier creates a combining-tree fuzzy barrier for n
// participants (n >= 1) with the default radix.
func NewTreeBarrier(n int) *TreeBarrier { return NewTreeBarrierRadix(n, DefaultTreeRadix) }

// NewTreeBarrierRadix creates a combining-tree fuzzy barrier with the
// given fan-in (values < 2 select DefaultTreeRadix).
func NewTreeBarrierRadix(n, radix int) *TreeBarrier {
	if n < 1 {
		panic(fmt.Sprintf("core: tree barrier size %d < 1", n))
	}
	if radix < 2 {
		radix = DefaultTreeRadix
	}
	b := &TreeBarrier{combTree: combTree{n: n, radix: radix}}
	b.init()
	b.grow(n, true)
	return b
}

// Stats returns a snapshot of the barrier's counters.
func (b *TreeBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *TreeBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

// HotspotOps implements ArriveProfiler: the atomic-operation traffic on
// the hottest single node, plus the phase count to normalize by. Each
// phase a node absorbs quota adds, and a leaf additionally pays two
// operations (add + undo) per full-probe.
func (b *TreeBarrier) HotspotOps() (ops, phases int64) {
	phases = b.Epoch()
	for i := range b.nodes {
		v := b.nodes[i].count.Load() + 2*b.nodes[i].probes.Load()
		if v > ops {
			ops = v
		}
	}
	return ops, phases
}

// Arrive signals that the caller is ready to synchronize and returns the
// phase ticket to pass to Wait. It never blocks and never spins on a
// remote value: at most nLeaves-1 fruitless probes plus a Depth-bounded
// climb.
func (b *TreeBarrier) Arrive() Phase {
	return b.arriveAt(homeLeaf(b.nLeaves))
}

// ArriveLeaf is Arrive with a caller-chosen home leaf instead of the
// stack-address hash: identical probe-on-full semantics, but the routing
// is deterministic — what the probe/undo tests and the deterministic
// experiment drives need. leaf must be in [0, Leaves()).
func (b *TreeBarrier) ArriveLeaf(leaf int) Phase {
	if leaf < 0 || leaf >= b.nLeaves {
		panic(fmt.Sprintf("core: tree barrier leaf %d out of range [0,%d)", leaf, b.nLeaves))
	}
	return b.arriveAt(leaf)
}

func (b *TreeBarrier) arriveAt(leaf int) Phase {
	e := b.epoch.Load()
	if at, filled := b.claim(leaf, e+1); filled && b.climb(b.nodes[at].parent, e+1) {
		b.publish()
	}
	return Phase{epoch: e}
}

// Await is the conventional point barrier: Arrive immediately followed
// by Wait.
func (b *TreeBarrier) Await() { b.Wait(b.Arrive()) }
