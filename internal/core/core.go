// Package core implements the paper's primary contribution: the fuzzy
// barrier (Gupta, ASPLOS 1989).
//
// A fuzzy barrier replaces the single synchronization *point* of a
// conventional barrier with a *region* of instructions. A processor is
// ready to synchronize as soon as it exits the non-barrier region
// preceding the barrier region; it may keep executing instructions inside
// the barrier region while synchronization is pending; it stalls only if
// it reaches the end of the region before all participating processors
// have become ready:
//
//	∀i: UNSHADED2ᵢ may execute  iff  ∀j: UNSHADED1ⱼ has executed
//
// The package provides the mechanism in both of the paper's forms:
//
//   - Unit / Network: the per-processor hardware state machine, tag+mask
//     register and broadcast ready lines of Section 6, consumed by the
//     cycle-level simulator in internal/machine.
//
//   - FuzzyBarrier: a runtime split-phase barrier for goroutines
//     (Arrive / Wait), the software analog the paper measured on the
//     Encore Multimax in Section 8. Arrive corresponds to entering the
//     barrier region, Wait to exiting it; the code executed between the
//     two calls is the barrier region.
//
//   - Allocator / SpawnTree: the multiple-barrier discipline of Section 5
//     — logically distinct barriers identified by tags, disjoint subsets
//     synchronizing independently via masks, and the N−1 barrier bound
//     for dynamically created streams.
package core

// Tag identifies a logical barrier. Two processors can only synchronize at
// a barrier if their tags match. TagNone (all zeros) indicates that the
// processor is not participating in barrier synchronization, so a system
// with an m-bit tag supports 2^m − 1 logical barriers (Section 6).
type Tag uint64

// TagNone marks a processor as not participating in any barrier.
const TagNone Tag = 0

// Mask selects the processors a given processor wishes to synchronize
// with: bit j set means "synchronize with processor j". A processor's own
// bit is ignored (the paper's mask has n−1 bits, one per *other*
// processor).
type Mask uint64

// MaskOf builds a Mask with the given processor bits set.
func MaskOf(procs ...int) Mask {
	var m Mask
	for _, p := range procs {
		m |= 1 << uint(p)
	}
	return m
}

// AllExcept returns the mask selecting every processor in [0, n) except
// self — the usual "everyone synchronizes" configuration.
func AllExcept(n, self int) Mask {
	var m Mask
	for p := 0; p < n; p++ {
		if p != self {
			m |= 1 << uint(p)
		}
	}
	return m
}

// Has reports whether processor p is selected by the mask.
func (m Mask) Has(p int) bool { return m&(1<<uint(p)) != 0 }
