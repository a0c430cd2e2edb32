package core

import (
	"fmt"
	"strings"
)

// NumSpinBuckets is the number of wait-spin histogram buckets that hold
// *resolved* Waits: power-of-four buckets over the spin iterations a
// Wait needed before it found the phase complete, i.e. upper bounds 1,
// 4, 16, 64, 256 and a >256 bucket. A fast Wait (already complete on
// entry) spins zero times and lands in the first bucket.
const NumSpinBuckets = 6

// NumWaitBuckets is the total histogram size: the resolved-spin buckets
// plus one dedicated overflow bucket for Waits that exhausted their
// whole spin budget without resolving (they then either resolved at the
// locked recheck — LockWaits — or slept — Blocks). Every Wait lands in
// exactly one bucket, so the histogram total equals
// FastWaits+SpinWaits+LockWaits+Blocks.
const NumWaitBuckets = NumSpinBuckets + 1

// waitBucket maps a resolved Wait's spin-iteration count to its
// histogram bucket.
func waitBucket(iters int64) int {
	b, bound := 0, int64(1)
	for b < NumSpinBuckets-1 && iters > bound {
		b++
		bound *= 4
	}
	return b
}

// WaitBucketLabel returns a human-readable label for wait-spin bucket i
// ("<=1", "<=4", ..., ">256", "exhausted").
func WaitBucketLabel(i int) string {
	switch {
	case i >= NumWaitBuckets-1:
		return "exhausted"
	case i >= NumSpinBuckets-1:
		return fmt.Sprintf(">%d", pow4(NumSpinBuckets-2))
	default:
		return fmt.Sprintf("<=%d", pow4(i))
	}
}

func pow4(n int) int64 {
	v := int64(1)
	for i := 0; i < n; i++ {
		v *= 4
	}
	return v
}

// BarrierStats is a point-in-time snapshot of a runtime barrier's
// counters: the observability surface shared by FuzzyBarrier,
// DynamicBarrier, TreeBarrier, HierBarrier, ReduceBarrier and Phaser,
// whose wait counters the benchmark's rt-* workloads record (bench/rt.go)
// and String prints. Always-on costs the hot path no lock and no
// allocation: each Wait adds to one outcome counter and one histogram
// bucket (a spinning Wait also to SpinIters), all padded off the line
// waiters spin on, and Arrive of a fixed-membership barrier writes no
// statistics word at all — Syncs and Arrivals are derived when a
// snapshot is taken.
type BarrierStats struct {
	Syncs int64 // completed barrier episodes: the epoch
	// Arrivals is the total number of Arrive calls, derived from the
	// barrier's own arrival state: exact at quiescence, within one
	// episode of n·Syncs while running (plus at most one in-flight probe
	// overshoot per participant on the combining trees).
	Arrivals  int64
	FastWaits int64 // Waits satisfied without spinning (already synced)
	SpinWaits int64 // Waits satisfied during the spin phase
	LockWaits int64 // Waits that exhausted the spin budget but resolved at the locked recheck (no sleep)
	Blocks    int64 // Waits that slept on the condition variable (the expensive case)
	SpinIters int64 // total spin iterations across all Waits

	// WaitSpins is a histogram of the spin iterations each Wait spent
	// before resolving (bucket upper bounds via WaitBucketLabel); fast
	// Waits land in the first bucket with zero iterations, and Waits that
	// exhausted the whole budget (LockWaits and Blocks) land in the final
	// "exhausted" overflow bucket. The bucket total therefore equals
	// Waits().
	WaitSpins [NumWaitBuckets]int64
}

// StalledWaits returns the departures that found synchronization still
// pending — the runtime analog of the hardware's stalled state (spun,
// lock-resolved or blocked rather than sailing through).
func (s BarrierStats) StalledWaits() int64 { return s.SpinWaits + s.LockWaits + s.Blocks }

// Waits returns the total number of Wait calls observed.
func (s BarrierStats) Waits() int64 { return s.FastWaits + s.SpinWaits + s.LockWaits + s.Blocks }

// BlockRate returns the fraction of Waits that blocked, 0 for no Waits.
func (s BarrierStats) BlockRate() float64 {
	if w := s.Waits(); w > 0 {
		return float64(s.Blocks) / float64(w)
	}
	return 0
}

// String renders the snapshot as a single metrics line.
func (s BarrierStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "syncs=%d arrivals=%d waits[fast=%d spin=%d lock=%d block=%d] stalled=%d spin-iters=%d",
		s.Syncs, s.Arrivals, s.FastWaits, s.SpinWaits, s.LockWaits, s.Blocks, s.StalledWaits(), s.SpinIters)
	var hist int64
	for _, c := range s.WaitSpins {
		hist += c
	}
	if hist > 0 {
		b.WriteString(" spin-hist[")
		first := true
		for i, c := range s.WaitSpins {
			if c == 0 {
				continue
			}
			if !first {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", WaitBucketLabel(i), c)
			first = false
		}
		b.WriteByte(']')
	}
	return b.String()
}

// tuple is the legacy six-value form every barrier's Stats() returns.
func (s BarrierStats) tuple() (syncs, arrivals, fastWaits, spinWaits, blocks, spinIters int64) {
	return s.Syncs, s.Arrivals, s.FastWaits, s.SpinWaits, s.Blocks, s.SpinIters
}

// observeSpin records a resolved Wait's spin-iteration count in the
// wait-spin histogram (0 for fast Waits).
func (rs *runtimeStats) observeSpin(iters int64) {
	rs.waitSpins[waitBucket(iters)].Add(1)
}

// observeSpinWait records a Wait resolved after iters spin iterations.
func (rs *runtimeStats) observeSpinWait(iters int64) {
	rs.SpinWaits.Add(1)
	rs.SpinIters.Add(iters)
	rs.observeSpin(iters)
}

// observeExhausted records a Wait that burned its whole spin budget
// without resolving — the slowest class of waits, which previously went
// missing from the histogram entirely — in the dedicated overflow
// bucket.
func (rs *runtimeStats) observeExhausted() {
	rs.waitSpins[NumWaitBuckets-1].Add(1)
}
