package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// HierBarrier is a two-level, topology-aware split-phase barrier for
// thousands of participants: the same Arrive/Wait contract as
// FuzzyBarrier and TreeBarrier, with both the arrival and the release
// side restructured to match how goroutines actually land on cores.
//
// Arrivals are partitioned across shards (one per GOMAXPROCS slot by
// default, the goroutine-runtime analog of a tile or NUMA node): each
// shard owns a fixed quota of the n participants and counts its own
// arrivals on a private combining subtree of cache-line-padded,
// cumulative counters — the TreeBarrier scheme, scoped to the shard.
// The arrival that completes a shard batches the whole shard into ONE
// cumulative token sent up a cross-shard combining tree, so cross-shard
// cache-line traffic is one handoff per shard per phase rather than one
// per arrival per level. The arrival that completes the cross-shard
// root publishes the phase.
//
// Release is fanned out to a per-shard epoch word: waiters spin on the
// word of their own shard, never on a line every other waiter is also
// spinning on, so the release broadcast invalidates S lines each read
// by ~n/S spinners instead of one line read by all n (the classic
// local-spin discipline). The words are monotone (CAS-max) and the
// central epoch is published *before* the fan-out, so a waiter woken by
// its shard word always observes a fresh central epoch on its next
// Arrive.
//
// Probing is test-and-test-and-set: a full leaf is detected with a plain
// atomic load (a read on a shared line — no ownership transfer) and the
// counter is only written when the load saw space, so the probe traffic
// that dominates the flat tree's hot spot under hash collisions costs
// one coherence-quiet read here instead of an add+undo write pair.
// A completely full shard is skipped with a single read of its subtree
// root (the root holds quota·phase tokens iff every leaf filled), so
// spill from an over-hashed shard scans S roots, not S·leaves counters.
type HierBarrier struct {
	combTree // shard subtrees first (per shard: leaves, then interior, root last), then the cross-shard tree

	nShards int
	shards  []hierShardMeta // per-shard node ranges and quotas
	rel     []hierRelease   // per-shard release epoch words, padded

	splitCore
}

// hierShardMeta locates one shard's subtree inside nodes.
type hierShardMeta struct {
	leafBase int   // index of the shard's first leaf counter
	nLeaves  int   // leaf counters owned by the shard
	root     int   // index of the shard's subtree root
	quota    int64 // participants owned by the shard (leaf quotas sum to it)
}

// hierRelease is one shard's release word on its own pair of cache
// lines: the only word a shard's waiters spin on.
type hierRelease struct {
	epoch atomic.Int64 // completed-phase count, monotone (CAS-max)
	_     [120]byte
}

// HierConfig overrides HierBarrier's GOMAXPROCS-derived layout.
type HierConfig struct {
	// Shards is the number of arrival shards; <= 0 derives
	// min(GOMAXPROCS, n). Values > n are clamped to n (every shard must
	// own at least one participant or its subtree could never complete).
	Shards int
	// Radix is the combining fan-in used for both the in-shard subtrees
	// and the cross-shard tree; < 2 derives DefaultTreeRadix, widened
	// just enough to keep the cross-shard tree at two levels when the
	// host offers more than radix² shards.
	Radix int
}

// NewHierBarrier creates a hierarchical split-phase barrier for n
// participants (n >= 1) with shard count and radix derived from
// GOMAXPROCS at construction time.
func NewHierBarrier(n int) *HierBarrier { return NewHierBarrierConfig(n, HierConfig{}) }

// NewHierBarrierConfig creates a hierarchical split-phase barrier with
// explicit layout overrides (deterministic tests and experiment drives
// pin Shards/Radix so tables don't depend on the host's core count).
func NewHierBarrierConfig(n int, cfg HierConfig) *HierBarrier {
	if n < 1 {
		panic(fmt.Sprintf("core: hier barrier size %d < 1", n))
	}
	s := cfg.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	radix := cfg.Radix
	if radix < 2 {
		radix = DefaultTreeRadix
		// Keep the cross-shard tree at two levels on very wide hosts:
		// the smallest fan-in whose square covers the shard count.
		for radix*radix < s {
			radix++
		}
	}

	b := &HierBarrier{combTree: combTree{n: n, radix: radix}, nShards: s}
	b.init()
	b.shards = make([]hierShardMeta, s)
	b.rel = make([]hierRelease, s)

	// Lay out each shard's subtree (balanced quotas: max-min <= 1,
	// summing to exactly n), then the cross-shard tree, in one flat node
	// slice so a filling leaf climbs through both levels by following
	// parent links — the cross-shard hop is just the shard root's parent.
	for i := range b.shards {
		m := &b.shards[i]
		m.quota = int64(n / s)
		if i < n%s {
			m.quota++
		}
		m.leafBase, m.nLeaves, m.root = b.grow(int(m.quota), true)
	}
	// Shard i's completion token lands on cross-shard leaf i/radix —
	// the same leaf packing grow used for its quotas.
	xbase, _, _ := b.grow(s, false)
	for i := range b.shards {
		b.nodes[b.shards[i].root].parent = xbase + i/radix
	}
	return b
}

// Shards returns the number of arrival shards.
func (b *HierBarrier) Shards() int { return b.nShards }

// ShardLeaves returns the number of leaf counters owned by shard s.
func (b *HierBarrier) ShardLeaves(s int) int {
	if s < 0 || s >= b.nShards {
		panic(fmt.Sprintf("core: hier barrier shard %d out of range [0,%d)", s, b.nShards))
	}
	return b.shards[s].nLeaves
}

// Stats returns a snapshot of the barrier's counters.
func (b *HierBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *HierBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

// Undos returns the number of overshoot add+undo pairs: arrivals that
// saw space in a leaf but lost the race for its last slot. Each pair is
// two writes on the contended line; the read-before-write probe
// discipline makes these rare instead of the common case.
func (b *HierBarrier) Undos() int64 {
	var total int64
	for i := range b.nodes {
		total += b.nodes[i].undos.Load()
	}
	return total
}

// HotspotOps implements ArriveProfiler: the atomic-operation traffic on
// the hottest single counter word, plus the phase count to normalize
// by. Per phase a node absorbs its quota adds, one operation per
// fruitless read-probe, and two per overshoot undo pair.
func (b *HierBarrier) HotspotOps() (ops, phases int64) {
	phases = b.Epoch()
	for i := range b.nodes {
		v := b.nodes[i].count.Load() + b.nodes[i].probes.Load() + 2*b.nodes[i].undos.Load()
		if v > ops {
			ops = v
		}
	}
	return ops, phases
}

// SlotFor returns the (shard, leaf) that owns the i-th of the n
// participant slots (i in [0, N())): routing participant i to
// SlotFor(i) fills every leaf to exactly its quota, so no arrival ever
// probes. The deterministic complement of the hashed default, for
// experiment drives and tests.
func (b *HierBarrier) SlotFor(i int) (shard, leaf int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("core: hier barrier slot %d out of range [0,%d)", i, b.n))
	}
	rem := int64(i)
	for s := range b.shards {
		if rem < b.shards[s].quota {
			return s, int(rem) / b.radix
		}
		rem -= b.shards[s].quota
	}
	panic("core: hier barrier shard quotas do not cover n")
}

// Arrive signals that the caller is ready to synchronize and returns
// the phase ticket to pass to Wait. It never blocks and never spins on
// a remote value: at most one read per full leaf or full shard probed,
// plus a Depth-bounded climb.
func (b *HierBarrier) Arrive() Phase {
	h := ShardHint()
	shard := int(h % uint64(b.nShards))
	leaf := int((h >> 32) % uint64(b.shards[shard].nLeaves))
	return b.arriveAt(shard, leaf)
}

// ArriveShardLeaf is Arrive with a caller-chosen home shard and leaf
// instead of the per-goroutine hash: identical probe-on-full semantics,
// deterministic routing for tests and experiment drives. shard must be
// in [0, Shards()) and leaf in [0, ShardLeaves(shard)).
func (b *HierBarrier) ArriveShardLeaf(shard, leaf int) Phase {
	if shard < 0 || shard >= b.nShards {
		panic(fmt.Sprintf("core: hier barrier shard %d out of range [0,%d)", shard, b.nShards))
	}
	if leaf < 0 || leaf >= b.shards[shard].nLeaves {
		panic(fmt.Sprintf("core: hier barrier leaf %d out of range [0,%d)", leaf, b.shards[shard].nLeaves))
	}
	return b.arriveAt(shard, leaf)
}

func (b *HierBarrier) arriveAt(shard, leaf int) Phase {
	for {
		// The epoch is re-read on every pass: a Wait released through a
		// shard word always sees a fresh epoch here (the central publish
		// precedes the fan-out), but re-reading keeps even a stale-target
		// pass — every slot looks full — a retry instead of a livelock.
		e := b.epoch.Load()
		target := e + 1
		for s := 0; s < b.nShards; s++ {
			si := shard + s
			if si >= b.nShards {
				si -= b.nShards
			}
			m := &b.shards[si]
			if b.nShards > 1 {
				// Full-shard shortcut: the subtree root holds quota·target
				// tokens iff every leaf in the shard filled, so one read
				// skips the whole shard. (A filling shard whose last token
				// is still climbing scans its leaves instead — harmless.)
				root := &b.nodes[m.root]
				if root.count.Load() >= root.quota*target {
					root.probes.Add(1)
					continue
				}
			}
			start := 0
			if s == 0 {
				start = leaf
			}
			for i := 0; i < m.nLeaves; i++ {
				li := start + i
				if li >= m.nLeaves {
					li -= m.nLeaves
				}
				nd := &b.nodes[m.leafBase+li]
				full := nd.quota * target
				// Test-and-test-and-set: probe with a read, write only
				// when the read saw space.
				if nd.count.Load() >= full {
					nd.probes.Add(1)
					continue
				}
				if v := nd.count.Add(1); v <= full {
					if v == full && b.climb(nd.parent, target) {
						b.release(target)
					}
					return Phase{epoch: e}
				}
				// Lost the race for the leaf's last slot: undo the
				// overshoot and keep probing. Once a leaf's count reaches
				// its phase target it never dips below it (every undo
				// cancels its own overshoot), so the exact target value is
				// returned to exactly one arrival — the one that climbs.
				nd.count.Add(-1)
				nd.undos.Add(1)
			}
		}
		// Every slot looked full at `target`: total capacity is exactly n
		// and at most n-1 other arrivals exist per phase, so the target
		// was stale — the phase completed while we probed. Loop to re-read
		// the epoch (guaranteed fresh by the publish-before-fan-out order)
		// and claim a slot of the new phase.
	}
}

// release publishes the phase whose cross-shard root the caller's token
// just completed — the climb having run through its shard subtree and
// across the shard root's parent link — and fans it out to the shards.
func (b *HierBarrier) release(target int64) {
	// Publish the central epoch first: any waiter released through a
	// shard word below observes the CAS-max, which in the program (and
	// seq-cst) order follows this publish — so its next Arrive reads a
	// fresh epoch. Blocked waiters wake here too.
	b.publish()
	// Fan the release out to the per-shard spin words. CAS-max keeps the
	// words monotone even when two publishers overlap: phase k+1's
	// fan-out can begin (fast shards released early, raced through the
	// next phase) while phase k's publisher is still walking the slice.
	for i := range b.rel {
		casMax(&b.rel[i].epoch, target)
	}
}

// casMax raises a to at least v (monotone, lock-free).
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Wait blocks until every participant has arrived at phase p, spinning
// on the caller's shard-local release word before falling back to the
// central blocking path — the spin reads never touch a line shared with
// waiters outside the shard.
func (b *HierBarrier) Wait(p Phase) {
	b.wait(p, &b.rel[int(ShardHint()%uint64(b.nShards))].epoch)
}

// Await is the conventional point barrier: Arrive immediately followed
// by Wait.
func (b *HierBarrier) Await() { b.Wait(b.Arrive()) }
