// Package sched implements the static loop-iteration schedules of
// Section 7.3: the block schedule, and the rotating remainder schedule of
// Figure 11(b) that equalizes work across rounds when the iteration count
// is not divisible by the processor count. Figure 12's run-time
// self-scheduling (one at a time, fixed chunks, GSS) runs on the
// simulated machine, as workload.DynamicSchedLoop.
package sched

// Assignment lists the iteration indices (0-based) each processor
// executes.
type Assignment [][]int

// Block assigns contiguous blocks with a balanced floor/remainder split:
// every processor gets ⌊n/procs⌋ iterations and the first n mod procs
// processors take one extra, so per-processor counts differ by at most
// one. (A naive ⌈n/procs⌉ chunking leaves whole processors idle — e.g.
// 9 iterations on 8 processors would yield [2 2 2 2 1 0 0 0] instead of
// [2 1 1 1 1 1 1 1] — which skews the imbalance experiments.)
func Block(n, procs int) Assignment {
	if procs <= 0 {
		return Assignment{}
	}
	out := make(Assignment, procs)
	if n <= 0 {
		return out
	}
	base, rem := n/procs, n%procs
	lo := 0
	for p := 0; p < procs; p++ {
		size := base
		if p < rem {
			size++
		}
		for i := lo; i < lo+size; i++ {
			out[p] = append(out[p], i)
		}
		lo += size
	}
	return out
}

// Rotating is the Figure 11(b) schedule: iterations are dealt
// round-robin, but the processors "take turns in executing the extra
// iteration" — the deal order rotates by the round number, so over procs
// consecutive rounds every processor executes the same total number of
// iterations even when n % procs != 0.
func Rotating(n, procs, round int) Assignment {
	if procs <= 0 {
		return Assignment{}
	}
	out := make(Assignment, procs)
	shift := round % procs
	if shift < 0 {
		shift += procs
	}
	for i := 0; i < n; i++ {
		p := (i + shift) % procs
		out[p] = append(out[p], i)
	}
	return out
}

// ImbalanceOver reports, for a schedule generator, the difference between
// the maximum and minimum total iterations any processor executes across
// `rounds` rounds — 0 means perfectly equalized (the Figure 11(c) goal).
func ImbalanceOver(gen func(round int) Assignment, rounds int) int {
	var totals []int
	for r := 0; r < rounds; r++ {
		a := gen(r)
		if totals == nil {
			totals = make([]int, len(a))
		}
		for p, its := range a {
			totals[p] += len(its)
		}
	}
	if len(totals) == 0 {
		return 0
	}
	min, max := totals[0], totals[0]
	for _, v := range totals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}
