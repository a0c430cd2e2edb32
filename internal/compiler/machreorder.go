package compiler

import (
	"fuzzybarrier/internal/dag"
	"fuzzybarrier/internal/isa"
)

// This file implements *post-codegen* (machine-level) region reordering —
// the weaker alternative Section 4 warns about: "After machine code has
// been generated, the opportunities for reordering are restricted due to
// dependences introduced from register or other resource usages." The E3
// ablation runs both levels on the same program and reports the
// difference.
//
// Both levels run the one three-phase scheduler and dependence builder
// in internal/dag; this file only describes machine instructions to it.
// The locations are machine registers (including the scratch registers
// the code generator recycles every few instructions) instead of the
// infinite TAC temporary space, so the gap E3 reports comes from those
// dependences alone. Marked instructions are the memory accesses — at
// this level the compiler can no longer distinguish which loads/stores
// carry cross-processor dependences, another fidelity loss.

// MachineSplit is the result of machine-level reordering of one
// straight-line window.
type MachineSplit struct {
	Pre        []isa.Instr
	NonBarrier []isa.Instr
	Post       []isa.Instr
}

// Sizes returns (pre, non-barrier, post) instruction counts.
func (s MachineSplit) Sizes() (int, int, int) {
	return len(s.Pre), len(s.NonBarrier), len(s.Post)
}

// ReorderMachineWindow applies the three-phase reordering to a
// straight-line machine-code window, treating every memory access as
// marked. It returns the split; the caller compares len(NonBarrier)
// against the intermediate-level result.
func ReorderMachineWindow(code []isa.Instr) (MachineSplit, error) {
	pre, nb, post, err := dag.Reorder(code, machineAccess)
	if err != nil {
		return MachineSplit{}, err
	}
	return MachineSplit{Pre: pre, NonBarrier: nb, Post: post}, nil
}

// machineAccess describes one machine instruction to dag's builder:
// register flow, loads (LD), and stores and atomics (ST, FAA), which
// conflict with every other memory access.
func machineAccess(in isa.Instr) dag.Access[isa.Reg] {
	d, ok := in.DefReg()
	return dag.Access[isa.Reg]{
		Uses: in.UseRegs(), Def: d, HasDef: ok,
		Load: in.Op == isa.LD, Store: in.Op == isa.ST || in.Op == isa.FAA,
		Control: isControl(in.Op), Marked: in.TouchesMemory(),
	}
}

// isControl reports whether op ends a straight-line run: branches,
// calls and returns, HALT, and the barrier instructions.
func isControl(op isa.Op) bool {
	return op.IsBranch() || op == isa.CALL || op == isa.RET ||
		op == isa.HALT || op == isa.BARRIER ||
		op == isa.BENTER || op == isa.BEXIT
}

// LargestNonBarrierWindow extracts the biggest straight-line run of
// non-barrier machine instructions from a compiled task — the candidate a
// post-codegen reorderer would work on.
func LargestNonBarrierWindow(p *isa.Program) []isa.Instr {
	var best, cur []isa.Instr
	flush := func() {
		if len(cur) > len(best) {
			best = cur
		}
		cur = nil
	}
	for i, in := range p.Code {
		if p.InBarrierRegion(i) || isControl(in.Op) {
			flush()
			continue
		}
		cur = append(cur, in)
	}
	flush()
	return best
}
