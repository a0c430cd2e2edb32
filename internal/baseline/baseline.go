// Package baseline implements the conventional software barriers the
// paper compares against: the centralized counter barrier (the "one or
// more shared variables" implementation of Section 1, whose overhead grows
// linearly with the processor count and which causes hot-spot accesses),
// the sense-reversing barrier, the software combining-tree barrier and the
// dissemination and tournament barriers (the logarithmic-cost
// implementations the paper's reference [4] points at).
//
// All implementations satisfy Barrier and count their spin iterations and
// episodes. The root BenchmarkE2Barriers times them beside the split
// barriers used as point barriers, and the benchmark's rt-spin workload
// times the sense-reversing barrier as its reference
// (baseline.episode_ns.sense). NewSplit names the split barriers the
// rt-* workloads run.
package baseline

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Barrier is a conventional (point) barrier for a fixed set of n
// participants, each identified by an id in [0, n).
type Barrier interface {
	// Await blocks participant id until all n participants have called
	// Await for the current episode.
	Await(id int)
	// N returns the number of participants.
	N() int
	// Name returns a short implementation name for tables.
	Name() string
	// Spins returns the total spin iterations across all participants.
	Spins() int64
	// Episodes returns the number of completed barrier episodes.
	Episodes() int64
}

// pad prevents false sharing between adjacent per-participant words.
type pad [56]byte

// spinWait spins until cond() holds, yielding to the scheduler
// periodically, and returns the number of iterations spent.
func spinWait(cond func() bool) int64 {
	var iters int64
	for !cond() {
		iters++
		if iters%64 == 0 {
			runtime.Gosched()
		}
	}
	return iters
}

func checkN(n int) {
	if n < 1 {
		panic(fmt.Sprintf("baseline: barrier size %d < 1", n))
	}
}

func checkID(id, n int) {
	if id < 0 || id >= n {
		panic(fmt.Sprintf("baseline: participant id %d out of range [0,%d)", id, n))
	}
}

// ceilLog2 returns ⌈log2 n⌉ with ceilLog2(1) == 0.
func ceilLog2(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// Central is the centralized counter barrier: one shared arrival counter
// and one shared release word. Every participant performs an atomic
// fetch-and-add on the counter and then spins on the release word — both
// shared locations become hot spots, and the arrival phase serializes, so
// the cost grows linearly with n (Section 1).
type Central struct {
	n        int64
	_        pad
	count    atomic.Int64
	_        pad
	release  atomic.Int64 // completed-episode counter
	_        pad
	spins    atomic.Int64
	episodes atomic.Int64
}

// NewCentral creates a centralized counter barrier for n participants.
func NewCentral(n int) *Central {
	checkN(n)
	return &Central{n: int64(n)}
}

// Await implements Barrier.
func (b *Central) Await(id int) {
	checkID(id, int(b.n))
	target := b.release.Load() + 1
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.episodes.Add(1)
		b.release.Add(1)
		return
	}
	b.spins.Add(spinWait(func() bool { return b.release.Load() >= target }))
}

// N implements Barrier.
func (b *Central) N() int { return int(b.n) }

// Name implements Barrier.
func (b *Central) Name() string { return "central" }

// Spins implements Barrier.
func (b *Central) Spins() int64 { return b.spins.Load() }

// Episodes implements Barrier.
func (b *Central) Episodes() int64 { return b.episodes.Load() }

// SenseReversing is the classic sense-reversing barrier: a shared counter
// plus a shared sense flag; each participant keeps a private sense that
// flips every episode. It fixes the counter-reset race of naive counter
// barriers but still concentrates all traffic on two shared words.
type SenseReversing struct {
	n        int64
	_        pad
	count    atomic.Int64
	_        pad
	sense    atomic.Int64
	_        pad
	local    []paddedInt64
	spins    atomic.Int64
	episodes atomic.Int64
}

type paddedInt64 struct {
	v int64
	_ pad
}

// NewSenseReversing creates a sense-reversing barrier for n participants.
func NewSenseReversing(n int) *SenseReversing {
	checkN(n)
	return &SenseReversing{n: int64(n), local: make([]paddedInt64, n)}
}

// Await implements Barrier.
func (b *SenseReversing) Await(id int) {
	checkID(id, int(b.n))
	mySense := b.local[id].v + 1
	b.local[id].v = mySense
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.episodes.Add(1)
		b.sense.Store(mySense)
		return
	}
	b.spins.Add(spinWait(func() bool { return b.sense.Load() >= mySense }))
}

// N implements Barrier.
func (b *SenseReversing) N() int { return int(b.n) }

// Name implements Barrier.
func (b *SenseReversing) Name() string { return "sense-reversing" }

// Spins implements Barrier.
func (b *SenseReversing) Spins() int64 { return b.spins.Load() }

// Episodes implements Barrier.
func (b *SenseReversing) Episodes() int64 { return b.episodes.Load() }
