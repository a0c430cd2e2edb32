package dag

import (
	"fmt"

	"fuzzybarrier/internal/ir"
)

// Split is the result of the Section 4 three-phase reordering of a
// non-barrier region candidate.
//
//   - Pre is moved into the barrier region *preceding* the non-barrier
//     region (phase 1: unmarked instructions with no marked ancestors —
//     in the Poisson example, all the address computations).
//   - NonBarrier is the shrunken non-barrier region (phase 2: the marked
//     instructions, scheduled as early as possible, plus the unmarked
//     instructions some marked instruction still needs).
//   - Post is moved into the barrier region *following* the non-barrier
//     region (phase 3: whatever remains).
type Split struct {
	Pre        ir.Block
	NonBarrier ir.Block
	Post       ir.Block
}

// ThreePhase reorders a straight-line TAC block per Section 4. The
// block's Marked flags identify the instructions that must remain in the
// non-barrier region. A trailing control instruction (a loop back-edge)
// is not permitted here; reorder the body and re-attach control flow in
// the caller.
//
// The returned blocks partition the input: concatenating Pre, NonBarrier
// and Post yields a legal schedule of the original block (every
// dependence edge points forward).
func ThreePhase(b ir.Block) (Split, error) {
	if err := b.Validate(); err != nil {
		return Split{}, err
	}
	pre, nb, post, err := Reorder(b, tacAccess)
	if err != nil {
		return Split{}, err
	}
	return Split{Pre: pre, NonBarrier: nb, Post: post}, nil
}

// Reorder is the Section 4 three-phase reorder of a straight-line window
// at any code level: access describes each instruction to the one
// dependence builder, and the result partitions code into the part
// moved into the preceding barrier region, the non-barrier region, and
// the part moved into the following barrier region. Concatenated they
// are a legal schedule of code. A control instruction is an error.
func Reorder[I any, K comparable](code []I, access func(I) Access[K]) (pre, nonBarrier, post []I, err error) {
	acc := make([]Access[K], len(code))
	marked := make([]bool, len(code))
	for i, in := range code {
		acc[i] = access(in)
		if acc[i].Control {
			return nil, nil, nil, fmt.Errorf("dag: control instruction %v in reorder input", in)
		}
		marked[i] = acc[i].Marked
	}
	regions, err := build(acc).schedule(marked)
	if err != nil {
		return nil, nil, nil, err
	}
	pick := func(idx []int) []I {
		var out []I
		for _, i := range idx {
			out = append(out, code[i])
		}
		return out
	}
	return pick(regions[0]), pick(regions[1]), pick(regions[2]), nil
}

// schedule runs the three phases over g, whose marked instructions must
// stay in the non-barrier region, returning the instruction indices of
// each region in schedule order. Repeated sweeps in original order keep
// every phase stable and legal.
func (g *Graph) schedule(marked []bool) ([3][]int, error) {
	n := len(marked)
	// markedAnc: some transitive predecessor is marked; needed: some
	// transitive successor is. Block order is a topological order.
	markedAnc := make([]bool, n)
	for i := 0; i < n; i++ {
		for _, p := range g.preds[i] {
			if marked[p] || markedAnc[p] {
				markedAnc[i] = true
				break
			}
		}
	}
	needed := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		for _, s := range g.succs[i] {
			if marked[s] || needed[s] {
				needed[i] = true
				break
			}
		}
	}

	var regions [3][]int
	scheduled := make([]bool, n)
	pending := make([]int, n) // unscheduled predecessor count
	for i := 0; i < n; i++ {
		pending[i] = len(g.preds[i])
	}
	ready := func(i int) bool { return !scheduled[i] && pending[i] == 0 }
	schedule := func(i, region int) {
		scheduled[i] = true
		regions[region] = append(regions[region], i)
		for _, s := range g.succs[i] {
			pending[s]--
		}
	}
	// sweep schedules every ready instruction that pick accepts into
	// region until a pass adds none.
	sweep := func(region int, pick func(i int) bool) {
		for progress := true; progress; {
			progress = false
			for i := 0; i < n; i++ {
				if ready(i) && pick(i) {
					schedule(i, region)
					progress = true
				}
			}
		}
	}

	// Phase 1: unmarked instructions with no marked ancestors move into
	// the preceding barrier region.
	sweep(0, func(i int) bool { return !marked[i] && !markedAnc[i] })

	// Phase 2: schedule marked instructions as early as possible; an
	// unmarked instruction is scheduled here only if a marked one still
	// needs it.
	remainingMarked := 0
	for i := 0; i < n; i++ {
		if marked[i] && !scheduled[i] {
			remainingMarked++
		}
	}
	for remainingMarked > 0 {
		progress := false
		// Prefer ready marked instructions.
		for i := 0; i < n; i++ {
			if ready(i) && marked[i] {
				schedule(i, 1)
				remainingMarked--
				progress = true
			}
		}
		if remainingMarked == 0 {
			break
		}
		if progress {
			continue
		}
		// No marked instruction is ready: free one up by scheduling a
		// ready unmarked instruction that a marked instruction needs.
		for i := 0; i < n; i++ {
			if ready(i) && needed[i] {
				schedule(i, 1)
				progress = true
				break
			}
		}
		if !progress {
			return regions, fmt.Errorf("dag: phase 2 wedged with %d marked instructions unscheduled (cyclic dependence?)", remainingMarked)
		}
	}

	// Phase 3: everything left moves into the following barrier region.
	sweep(2, func(int) bool { return true })
	for i := 0; i < n; i++ {
		if !scheduled[i] {
			return regions, fmt.Errorf("dag: instruction %d unschedulable", i)
		}
	}
	return regions, nil
}
