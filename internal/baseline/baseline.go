// Package baseline holds the conventional barrier the split barriers are
// timed against on goroutines — the sense-reversing barrier, Section 1's
// point barrier, whose shared counter and flag are both hot spots — and
// NewSplit, which names the split barriers the rt-* workloads run. The
// root BenchmarkE2Barriers times it beside the split barriers used as
// point barriers, and the benchmark's rt-spin workload times it as its
// reference (baseline.episode_ns.sense). The central and dissemination
// software barriers of Section 1 are compared with the hardware barrier
// on the simulated machine, in experiment E2.
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
