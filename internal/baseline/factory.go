package baseline

import (
	"fmt"
	"sort"

	"fuzzybarrier/internal/core"
)

// New constructs a barrier by name. Known names: "central",
// "sense-reversing", "tree", "dissemination", "tournament", "fuzzy"
// (a core.FuzzyBarrier used as a point barrier, for apples-to-apples
// comparisons), "fuzzy-tree" (the combining-tree core.TreeBarrier,
// likewise as a point barrier), "fuzzy-reduce" (the value-carrying
// core.ReduceBarrier with a sum reduction, paying the allreduce combine
// on every episode), and "hier" (the two-level sharded
// core.HierBarrier with its GOMAXPROCS-derived layout).
func New(name string, n int) (Barrier, error) {
	switch name {
	case "central":
		return NewCentral(n), nil
	case "sense-reversing":
		return NewSenseReversing(n), nil
	case "tree":
		return NewTree(n, 4), nil
	case "dissemination":
		return NewDissemination(n), nil
	case "tournament":
		return NewTournament(n), nil
	case "fuzzy":
		return NewFuzzyPoint(n), nil
	case "fuzzy-tree":
		return newSplitPoint("fuzzy-tree", core.NewTreeBarrier(n)), nil
	case "fuzzy-reduce":
		return newSplitPoint("fuzzy-reduce", core.NewReduceBarrier(n, core.OpSum, core.IdentitySum)), nil
	case "hier":
		return newSplitPoint("hier", core.NewHierBarrier(n)), nil
	}
	return nil, fmt.Errorf("baseline: unknown barrier %q", name)
}

// Names returns the known barrier names in stable order.
func Names() []string {
	names := []string{"central", "sense-reversing", "tree", "dissemination", "tournament", "fuzzy", "fuzzy-tree", "fuzzy-reduce", "hier"}
	sort.Strings(names)
	return names
}

// SplitNames returns the names that are split-phase (fuzzy) barriers —
// the subset NewSplit builds with Arrive/Wait for region workloads.
func SplitNames() []string { return []string{"fuzzy", "fuzzy-tree", "fuzzy-reduce", "hier"} }

// NewSplit constructs a runtime split-phase barrier by split name.
func NewSplit(name string, n int) (core.SplitBarrier, error) {
	switch name {
	case "fuzzy":
		return core.NewFuzzyBarrier(n), nil
	case "fuzzy-tree":
		return core.NewTreeBarrier(n), nil
	case "fuzzy-reduce":
		return core.NewReduceBarrier(n, core.OpSum, core.IdentitySum), nil
	case "hier":
		return core.NewHierBarrier(n), nil
	}
	return nil, fmt.Errorf("baseline: unknown split barrier %q", name)
}

// SplitPoint adapts any core.SplitBarrier to the Barrier interface by
// using it as a point barrier (empty barrier region).
type SplitPoint struct {
	name  string
	inner core.SplitBarrier
}

// newSplitPoint wraps a split-phase barrier under the given table name.
func newSplitPoint(name string, b core.SplitBarrier) *SplitPoint {
	return &SplitPoint{name: name, inner: b}
}

// NewFuzzyPoint wraps a fresh central-counter fuzzy barrier for n
// participants.
func NewFuzzyPoint(n int) *SplitPoint {
	return newSplitPoint("fuzzy", core.NewFuzzyBarrier(n))
}

// Await implements Barrier.
func (b *SplitPoint) Await(id int) {
	checkID(id, b.inner.N())
	b.inner.Await()
}

// N implements Barrier.
func (b *SplitPoint) N() int { return b.inner.N() }

// Name implements Barrier.
func (b *SplitPoint) Name() string { return b.name }

// Spins implements Barrier.
func (b *SplitPoint) Spins() int64 {
	_, _, _, _, _, spinIters := b.inner.Stats()
	return spinIters
}

// Episodes implements Barrier.
func (b *SplitPoint) Episodes() int64 {
	syncs, _, _, _, _, _ := b.inner.Stats()
	return syncs
}
