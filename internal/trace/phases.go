package trace

// Phases attributes every processor-cycle to a (phase-index, Kind) pair,
// where a phase is one barrier episode: phase k covers the cycles a
// processor spends between its (k-1)-th and k-th synchronization. The
// simulator calls Account once for each cycle a processor consumes and
// Advance when the processor's synchronization fires, so experiments can
// report stall/exec/memory cycles per barrier episode instead of only
// end-of-run aggregates (the per-phase attribution used to compare
// barrier implementations at scale — e.g. the 1024-core RISC-V cluster
// study in PAPERS.md).
//
// Like Recorder, a nil *Phases is permitted everywhere and records
// nothing, so the hooks are allocation-free when attribution is disabled.
type Phases struct {
	cur    []int     // current phase index per processor
	counts [][]int64 // per processor: flat [phase*numKinds + kindIndex]
}

// NewPhases returns a Phases aggregator for the given processor count.
func NewPhases(procs int) *Phases {
	if procs < 0 {
		procs = 0
	}
	return &Phases{
		cur:    make([]int, procs),
		counts: make([][]int64, procs),
	}
}

// Account attributes one cycle of activity kind k to processor p's
// current phase. Unknown processors and unknown kinds are dropped.
func (ph *Phases) Account(p int, k Kind) { ph.AccountN(p, k, 1) }

// AccountN attributes n cycles of activity kind k to processor p's
// current phase — the bulk form of Account used by the simulator's
// fast-forward path. Calling AccountN(p, k, n) is equivalent to calling
// Account(p, k) n times.
func (ph *Phases) AccountN(p int, k Kind, n int64) {
	if ph == nil || n <= 0 || p < 0 || p >= len(ph.cur) {
		return
	}
	ki := k.Index()
	if ki < 0 {
		return
	}
	idx := ph.cur[p]*numKinds + ki
	c := ph.counts[p]
	for len(c) <= idx {
		c = append(c, 0)
	}
	c[idx] += n
	ph.counts[p] = c
}

// Advance moves processor p to its next phase: call it on the cycle the
// processor's synchronization fires. Cycles accounted afterwards belong
// to the next barrier episode.
func (ph *Phases) Advance(p int) {
	if ph == nil || p < 0 || p >= len(ph.cur) {
		return
	}
	ph.cur[p]++
}

// NumPhases returns the number of phases touched by any processor:
// 1 + max over processors of (phases with accounted cycles, current
// phase index). Zero when nothing was accounted.
func (ph *Phases) NumPhases() int {
	if ph == nil {
		return 0
	}
	n := 0
	for p := range ph.cur {
		hi := ph.cur[p]
		if c := len(ph.counts[p]); c > 0 {
			if last := (c - 1) / numKinds; last > hi {
				hi = last
			}
		} else if ph.cur[p] == 0 {
			continue // processor never accounted nor advanced
		}
		if hi+1 > n {
			n = hi + 1
		}
	}
	return n
}

// ProcCounts returns processor p's cycle counts for one phase, indexed by
// Kind.Index (length numKinds). It returns nil for unknown processors;
// phases beyond the last accounted one yield all zeros.
func (ph *Phases) ProcCounts(p, phase int) []int64 {
	if ph == nil || p < 0 || p >= len(ph.cur) || phase < 0 {
		return nil
	}
	out := make([]int64, numKinds)
	base := phase * numKinds
	c := ph.counts[p]
	for i := 0; i < numKinds; i++ {
		if base+i < len(c) {
			out[i] = c[base+i]
		}
	}
	return out
}

// Counts returns the cycle counts for one phase summed over all
// processors, indexed by Kind.Index.
func (ph *Phases) Counts(phase int) []int64 {
	if ph == nil {
		return nil
	}
	out := make([]int64, numKinds)
	for p := range ph.cur {
		for i, v := range ph.ProcCounts(p, phase) {
			out[i] += v
		}
	}
	return out
}

// PhaseCycles returns processor-cycles of kind k attributed to the given
// phase, summed over processors.
func (ph *Phases) PhaseCycles(phase int, k Kind) int64 {
	if ph == nil {
		return 0
	}
	ki := k.Index()
	if ki < 0 {
		return 0
	}
	var total int64
	base := phase * numKinds
	for p := range ph.cur {
		c := ph.counts[p]
		if base+ki < len(c) {
			total += c[base+ki]
		}
	}
	return total
}

// KindTotal returns the total processor-cycles of kind k across all
// phases — by construction equal to the simulator's aggregate counters,
// which is the invariant the experiment harness asserts.
func (ph *Phases) KindTotal(k Kind) int64 {
	if ph == nil {
		return 0
	}
	ki := k.Index()
	if ki < 0 {
		return 0
	}
	var total int64
	for p := range ph.cur {
		c := ph.counts[p]
		for i := ki; i < len(c); i += numKinds {
			total += c[i]
		}
	}
	return total
}

// Table renders the per-phase attribution as the fixed-width table used
// by the experiment harness: one row per phase with the kinds that
// actually occurred as columns.
func (ph *Phases) Table(title string) *Table {
	used := ph.usedKinds()
	header := []string{"phase"}
	for _, k := range used {
		header = append(header, k.String())
	}
	header = append(header, "total")
	t := NewTable(title, header...)
	for phase := 0; phase < ph.NumPhases(); phase++ {
		counts := ph.Counts(phase)
		row := []any{phase}
		var total int64
		for _, k := range used {
			v := counts[k.Index()]
			row = append(row, v)
			total += v
		}
		row = append(row, total)
		t.AddRow(row...)
	}
	return t
}

// usedKinds returns the kinds with at least one accounted cycle, in
// Kinds order.
func (ph *Phases) usedKinds() []Kind {
	var used []Kind
	for _, k := range Kinds {
		if ph.KindTotal(k) > 0 {
			used = append(used, k)
		}
	}
	return used
}
