package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ReduceOp combines two reduction contributions. The operation must be
// associative and commutative: contributions are combined up the tree in
// whatever order arrivals race into the nodes, so any grouping and any
// order must give the same result (sum, min, max, xor, and, or — not
// subtraction, not floating-point-sensitive folds).
type ReduceOp func(a, b int64) int64

// Canned reduction operators with their identities.
var (
	// OpSum adds contributions; identity 0.
	OpSum ReduceOp = func(a, b int64) int64 { return a + b }
	// OpMin keeps the minimum; identity math.MaxInt64.
	OpMin ReduceOp = func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	}
	// OpMax keeps the maximum; identity math.MinInt64.
	OpMax ReduceOp = func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	}
	// OpXor xors contributions; identity 0.
	OpXor ReduceOp = func(a, b int64) int64 { return a ^ b }
)

// Identities for the canned operators.
const (
	IdentitySum int64 = 0
	IdentityMin int64 = math.MaxInt64
	IdentityMax int64 = math.MinInt64
	IdentityXor int64 = 0
)

// ReduceBarrier is a fuzzy allreduce: the TreeBarrier's split-phase
// contract where every Arrive carries a value, partial results combine
// up the same padded radix-k tree the arrival tokens climb, and the root
// publisher stores the phase's full reduction *before* publishing the
// epoch — so Wait returns the allreduce result with no extra broadcast
// round. ArriveValue stays non-blocking (the barrier-region work runs
// while the reduction completes), which is exactly the fuzzy-barrier
// separation applied to a collective: the paper's hardware overlaps the
// synchronization wait with barrier-region instructions; here the
// combining itself is overlapped too.
//
// Per node the arrival count is split into two counters so the probe
// path never has to un-combine a value (min/max have no inverse): count
// is the claim/undo ticket counter — cumulative, probed and decremented
// by the very claim loop TreeBarrier uses — and done counts finished
// deposits. A contribution is combined into the node's accumulator only
// after its slot claim succeeded, then done is incremented; the arrival
// whose done increment fills the node's quota drains the accumulator,
// resets it to the identity, and carries the partial result to the
// parent. Go's sync/atomic operations are sequentially consistent, so
// every combine that contributed to the quota-filling done value is
// visible to the drainer.
type ReduceBarrier struct {
	combTree

	op       ReduceOp
	identity int64
	result   atomic.Int64

	splitCore
}

// NewReduceBarrier creates a fuzzy reduce barrier for n participants
// (n >= 1) with the default radix. op must be associative and
// commutative with the given identity (op(identity, v) == v).
func NewReduceBarrier(n int, op ReduceOp, identity int64) *ReduceBarrier {
	return NewReduceBarrierRadix(n, DefaultTreeRadix, op, identity)
}

// NewReduceBarrierRadix creates a fuzzy reduce barrier with the given
// fan-in (values < 2 select DefaultTreeRadix).
func NewReduceBarrierRadix(n, radix int, op ReduceOp, identity int64) *ReduceBarrier {
	if n < 1 {
		panic(fmt.Sprintf("core: reduce barrier size %d < 1", n))
	}
	if op == nil {
		panic("core: reduce barrier op is nil")
	}
	if radix < 2 {
		radix = DefaultTreeRadix
	}
	b := &ReduceBarrier{combTree: combTree{n: n, radix: radix}, op: op, identity: identity}
	b.init()
	b.grow(n, true)
	for i := range b.nodes {
		b.nodes[i].acc.Store(identity)
	}
	b.result.Store(identity)
	return b
}

// Stats returns a snapshot of the barrier's counters.
func (b *ReduceBarrier) Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return b.StatsSnapshot().tuple()
}

// StatsSnapshot returns the full observability snapshot, including the
// wait-spin histogram.
func (b *ReduceBarrier) StatsSnapshot() BarrierStats { return b.snapshot(b.arrivals) }

// HotspotOps implements ArriveProfiler like TreeBarrier: the
// atomic-operation traffic on the hottest single node, counting each
// deposit's slot claim + combine + done increment, the per-phase drain
// pair (read + identity reset), and two operations per full-probe.
func (b *ReduceBarrier) HotspotOps() (ops, phases int64) {
	phases = b.Epoch()
	for i := range b.nodes {
		nd := &b.nodes[i]
		// Per deposit: count.Add + acc CAS + done.Add = 3 ops; per phase
		// the drainer's acc load + reset = 2 ops; per probe: add + undo.
		v := 3*nd.done.Load() + 2*phases + 2*nd.probes.Load()
		if v > ops {
			ops = v
		}
	}
	return ops, phases
}

// Arrive contributes the identity (pure synchronization, no data) and
// returns the phase ticket; it makes ReduceBarrier satisfy SplitBarrier.
func (b *ReduceBarrier) Arrive() Phase { return b.ArriveValue(b.identity) }

// ArriveValue deposits the caller's contribution for the current phase
// and returns the phase ticket to pass to Wait or WaitValue. It never
// blocks and never spins on a remote value: at most nLeaves-1 fruitless
// probes plus a Depth-bounded combine climb. The int64 path does not
// allocate.
//
// Every participant must call ArriveValue (or Arrive) exactly once per
// phase, and must call Wait/WaitValue before its next arrival.
func (b *ReduceBarrier) ArriveValue(v int64) Phase {
	return b.arriveAt(homeLeaf(b.nLeaves), v)
}

// LeafFor returns the home leaf that owns the i-th of the n participant
// slots (i in [0, N())): routing participant i to LeafFor(i) fills every
// leaf to exactly its quota, so no arrival ever probes. The complement
// of the hashed default — deterministic experiment drives use it to
// separate combining cost from probe cost.
func (b *ReduceBarrier) LeafFor(i int) int {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("core: reduce barrier slot %d out of range [0,%d)", i, b.n))
	}
	rem := int64(i)
	for leaf := 0; ; leaf++ {
		if rem < b.nodes[leaf].quota {
			return leaf
		}
		rem -= b.nodes[leaf].quota
	}
}

// ArriveValueLeaf is ArriveValue with a caller-chosen home leaf instead
// of the stack-address hash — deterministic routing for tests and
// experiment drives. leaf must be in [0, Leaves()).
func (b *ReduceBarrier) ArriveValueLeaf(leaf int, v int64) Phase {
	if leaf < 0 || leaf >= b.nLeaves {
		panic(fmt.Sprintf("core: reduce barrier leaf %d out of range [0,%d)", leaf, b.nLeaves))
	}
	return b.arriveAt(leaf, v)
}

func (b *ReduceBarrier) arriveAt(leaf int, v int64) Phase {
	e := b.epoch.Load()
	at, _ := b.claim(leaf, e+1)
	b.deposit(at, v, e+1)
	return Phase{epoch: e}
}

// combine folds v into the node's accumulator with a CAS loop.
func (b *ReduceBarrier) combine(nd *combNode, v int64) {
	for {
		old := nd.acc.Load()
		if nd.acc.CompareAndSwap(old, b.op(old, v)) {
			return
		}
	}
}

// deposit combines v into node and walks the completion upward: the
// deposit that fills a node's done quota drains the accumulator, resets
// it to the identity for the next phase, and carries the partial result
// to the parent; at the root it stores the phase's reduction and only
// then publishes the epoch, so any Wait that observes the new epoch also
// observes the result. The combine happens strictly before the done
// increment, and atomics are seq-cst, so the drainer sees every combine
// counted by the quota-filling done value. The reset is safe: phase
// target+1 deposits into this node cannot start until the root publishes
// phase target (every participant's Wait must return first), and the
// reset happens before that publish on the drainer's own path.
func (b *ReduceBarrier) deposit(node int, v int64, target int64) {
	for {
		nd := &b.nodes[node]
		b.combine(nd, v)
		if nd.done.Add(1) != nd.quota*target {
			return
		}
		v = nd.acc.Load()
		nd.acc.Store(b.identity)
		if nd.parent < 0 {
			b.result.Store(v)
			b.publish()
			return
		}
		node = nd.parent
	}
}

// WaitValue blocks like Wait and returns the phase's allreduce result —
// op folded over every participant's contribution. Reading the result
// here is safe against the next phase's overwrite: phase p+1's root
// store cannot happen until every participant has arrived for p+1, and
// each participant's p+1 arrival is preceded by its own WaitValue(p)
// return.
func (b *ReduceBarrier) WaitValue(p Phase) int64 {
	b.Wait(p)
	return b.result.Load()
}

// Await is the conventional point allreduce: ArriveValue immediately
// followed by WaitValue.
func (b *ReduceBarrier) Await() { b.Wait(b.Arrive()) }

// AwaitValue contributes v and blocks until the phase's reduction is
// complete, returning it.
func (b *ReduceBarrier) AwaitValue(v int64) int64 { return b.WaitValue(b.ArriveValue(v)) }
