package compiler

import (
	"math/rand"
	"testing"

	"fuzzybarrier/internal/isa"
)

// regsOf returns the registers in reads and writes, spelled out per
// opcode here rather than taken from isa or dag, so the property test
// below is an oracle independent of the dependence builder.
func regsOf(in isa.Instr) (reads, writes []isa.Reg) {
	switch in.Op {
	case isa.ADD, isa.SUB, isa.MUL:
		return []isa.Reg{in.Rs, in.Rt}, []isa.Reg{in.Rd}
	case isa.LDI:
		return nil, []isa.Reg{in.Rd}
	case isa.LD:
		return []isa.Reg{in.Rs}, []isa.Reg{in.Rd}
	case isa.ST:
		return []isa.Reg{in.Rs, in.Rt}, nil
	case isa.FAA:
		return []isa.Reg{in.Rs, in.Rt}, []isa.Reg{in.Rd}
	}
	panic("regsOf: unexpected opcode " + in.Op.String())
}

func overlaps(a, b []isa.Reg) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// conflicts reports whether a (earlier) and b (later) must keep their
// order: a register read-after-write, write-after-read or
// write-after-write, or two memory accesses at least one of which is a
// store or an atomic.
func conflicts(a, b isa.Instr) bool {
	ra, wa := regsOf(a)
	rb, wb := regsOf(b)
	if overlaps(wa, rb) || overlaps(ra, wb) || overlaps(wa, wb) {
		return true
	}
	writes := func(in isa.Instr) bool { return in.Op == isa.ST || in.Op == isa.FAA }
	return a.TouchesMemory() && b.TouchesMemory() && (writes(a) || writes(b))
}

// TestReorderMachineWindowProperty: on random straight-line windows of
// ALU, LDI, LD, ST and FAA instructions over 6 registers, the machine
// reorder returns a permutation of its input, keeps every memory access
// in NonBarrier, and keeps every conflicting pair in its original order
// (checked by brute force over all pairs).
func TestReorderMachineWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.LDI, isa.LD, isa.ST, isa.FAA}
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(6)) }
	for trial := 0; trial < 500; trial++ {
		code := make([]isa.Instr, 1+rng.Intn(40))
		for i := range code {
			// Imm plays no part in any dependence; it tags each
			// instruction with its original index.
			code[i] = isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs: reg(), Rt: reg(), Imm: int64(i)}
		}
		split, err := ReorderMachineWindow(code)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, in := range append(append([]isa.Instr{}, split.Pre...), split.Post...) {
			if in.TouchesMemory() {
				t.Fatalf("trial %d: memory op %v left the non-barrier region", trial, in)
			}
		}
		pos := make([]int, len(code))
		for i := range pos {
			pos[i] = -1
		}
		sched := append(append(append([]isa.Instr{}, split.Pre...), split.NonBarrier...), split.Post...)
		if len(sched) != len(code) {
			t.Fatalf("trial %d: %d instructions out for %d in", trial, len(sched), len(code))
		}
		for k, in := range sched {
			i := int(in.Imm)
			if i < 0 || i >= len(code) || pos[i] >= 0 || in != code[i] {
				t.Fatalf("trial %d: output is not a permutation of the input (%v at %d)", trial, in, k)
			}
			pos[i] = k
		}
		for i := range code {
			for j := i + 1; j < len(code); j++ {
				if conflicts(code[i], code[j]) && pos[i] > pos[j] {
					t.Fatalf("trial %d: %v (#%d) and %v (#%d) conflict but were swapped",
						trial, code[i], i, code[j], j)
				}
			}
		}
	}
}
