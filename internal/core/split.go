package core

// SplitBarrier is the split-phase (fuzzy) barrier contract shared by the
// runtime implementations: the central-counter FuzzyBarrier, the
// combining-tree TreeBarrier, the two-level sharded HierBarrier, and
// the allreduce ReduceBarrier (whose plain Arrive contributes the
// reduction identity). They differ in Arrive alone: TryWait, Wait (bar
// HierBarrier's choice of spin word) and Epoch are the one embedded
// splitCore's. The experiment harness, the rt-* benchmark workloads
// (bench/rt.go) and the root benchmarks all drive barriers through this
// interface so that implementations can be compared apples-to-apples.
//
// The protocol is the paper's: Arrive marks entry into the barrier
// region and never blocks; Wait marks the region's end and blocks only
// if some participant has not yet arrived at the same phase. Every
// participant must call Arrive exactly once per phase and Wait before
// its next Arrive.
type SplitBarrier interface {
	// Arrive signals readiness to synchronize; it never blocks.
	Arrive() Phase
	// TryWait reports whether the phase completed, without blocking.
	TryWait(Phase) bool
	// Wait blocks until every participant has arrived at the phase.
	Wait(Phase)
	// Await is the conventional point barrier: Arrive then Wait.
	Await()
	// N returns the number of participants.
	N() int
	// Epoch returns the number of completed synchronization episodes.
	Epoch() int64
	// Stats returns the runtime counters (StatsSnapshot's legacy tuple).
	Stats() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64)
	// StatsSnapshot returns the full observability snapshot, including
	// the wait-spin histogram (see BarrierStats).
	StatsSnapshot() BarrierStats
}

// ArriveProfiler is optionally implemented by split barriers that can
// report arrive-side contention: the total number of atomic operations
// applied to the single most-contended counter word, plus the number of
// completed phases to normalize by. ops/phases is the per-episode
// traffic on the hottest memory location — the quantity that turns a
// shared counter into the hot spot of Section 1, independent of how many
// cores the host happens to have.
type ArriveProfiler interface {
	HotspotOps() (ops, phases int64)
}

// Compile-time interface checks.
var (
	_ SplitBarrier   = (*FuzzyBarrier)(nil)
	_ SplitBarrier   = (*TreeBarrier)(nil)
	_ SplitBarrier   = (*ReduceBarrier)(nil)
	_ SplitBarrier   = (*HierBarrier)(nil)
	_ ArriveProfiler = (*FuzzyBarrier)(nil)
	_ ArriveProfiler = (*TreeBarrier)(nil)
	_ ArriveProfiler = (*ReduceBarrier)(nil)
	_ ArriveProfiler = (*HierBarrier)(nil)
)
