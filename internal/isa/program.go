package isa

import (
	"errors"
	"fmt"
	"strings"
)

// Mode selects how the simulator decides whether an instruction belongs to
// a barrier region (the two encodings of Section 6).
type Mode int

const (
	// ModeBit uses the per-instruction barrier bit.
	ModeBit Mode = iota
	// ModeMarker derives region membership dynamically from BENTER/BEXIT
	// marker instructions.
	ModeMarker
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBit:
		return "bit"
	case ModeMarker:
		return "marker"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Program is a fully resolved instruction sequence for one processor
// stream.
type Program struct {
	Name   string
	Mode   Mode
	Code   []Instr
	labels map[string]int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// LabelAddr returns the instruction index of a label.
func (p *Program) LabelAddr(label string) (int, bool) {
	addr, ok := p.labels[label]
	return addr, ok
}

// Region identifies a maximal contiguous run of barrier (or non-barrier)
// instructions in a program, in static program order. Branches can make the
// dynamic region larger than the static one (Section 3); Regions reports
// the static structure, which is what the compiler reasons about.
type Region struct {
	Barrier    bool
	Start, End int // [Start, End) instruction indices
}

// Len returns the number of instructions in the region.
func (r Region) Len() int { return r.End - r.Start }

// Regions splits the program into maximal static runs of equal barrier-bit
// instructions. In marker mode, membership is computed by linear scan of
// the BENTER/BEXIT markers (the markers themselves count as barrier-region
// instructions).
func (p *Program) Regions() []Region {
	if len(p.Code) == 0 {
		return nil
	}
	inBar := func(i int) bool { return p.InBarrierRegion(i) }
	var out []Region
	cur := Region{Barrier: inBar(0), Start: 0}
	for i := 1; i < len(p.Code); i++ {
		if inBar(i) != cur.Barrier {
			cur.End = i
			out = append(out, cur)
			cur = Region{Barrier: inBar(i), Start: i}
		}
	}
	cur.End = len(p.Code)
	return append(out, cur)
}

// InBarrierRegion reports whether instruction i belongs to a barrier
// region under the program's encoding mode.
func (p *Program) InBarrierRegion(i int) bool {
	if i < 0 || i >= len(p.Code) {
		return false
	}
	if p.Mode == ModeBit {
		return p.Code[i].Barrier
	}
	// Marker mode: scan from the start tracking BENTER/BEXIT. Programs are
	// small (compiler output), so the O(n) scan per query is only used by
	// analysis code; the simulator tracks membership incrementally.
	in := false
	for j := 0; j <= i; j++ {
		switch p.Code[j].Op {
		case BENTER:
			in = true
		case BEXIT:
			if j == i {
				return true // the BEXIT itself is the last region instruction
			}
			in = false
		}
	}
	return in
}

// regionIndex returns, for every instruction, the index of the static
// region (from Regions) containing it.
func (p *Program) regionIndex() []int {
	idx := make([]int, len(p.Code))
	for ri, r := range p.Regions() {
		for i := r.Start; i < r.End; i++ {
			idx[i] = ri
		}
	}
	return idx
}

// ErrInvalidBranch is wrapped by validation errors for branches that
// transfer control directly from one barrier region to a different one —
// the Figure 2 bug, which causes missed synchronizations and deadlock when
// the hardware cannot distinguish barriers.
var ErrInvalidBranch = errors.New("branch transfers control directly between distinct barrier regions")

// Validate checks structural well-formedness:
//
//   - every branch target is within the program,
//   - opcodes are defined and register numbers in range,
//   - in marker mode, BENTER/BEXIT nest properly (no BENTER while already
//     inside a region, no BEXIT outside one),
//   - no branch transfers control *forward* from one barrier region into
//     a different barrier region (Section 3 / Figure 2): such a branch
//     skips the intervening non-barrier region and merges two distinct
//     barriers, causing missed synchronizations and deadlock. A backward
//     branch between barrier regions is legal — it is the canonical
//     loop whose barrier region extends across the back edge, where the
//     two static runs are halves of one dynamic region ("the barrier
//     region can contain code not only from the end of one iteration but
//     also from the start of the subsequent iteration", Section 3).
//
// The Figure 2 check can be suppressed with allowCrossBarrier=true, which
// models an implementation that distinguishes barriers by explicit tags
// (the paper notes the problem "will not arise" there). The simulator's
// E9 experiment runs such an invalid program to demonstrate the deadlock.
func (p *Program) Validate(allowCrossBarrier bool) error {
	for i, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s@%d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
			return fmt.Errorf("isa: %s@%d: register out of range in %v", p.Name, i, in)
		}
		if in.Op.IsBranch() || in.Op == CALL {
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("isa: %s@%d: branch target %d out of range [0,%d)", p.Name, i, in.Target, len(p.Code))
			}
		}
		if in.Op == WORK && in.Imm < 0 {
			return fmt.Errorf("isa: %s@%d: negative WORK duration %d", p.Name, i, in.Imm)
		}
	}
	if p.Mode == ModeMarker {
		in := false
		for i, ins := range p.Code {
			switch ins.Op {
			case BENTER:
				if in {
					return fmt.Errorf("isa: %s@%d: BENTER while already inside a barrier region", p.Name, i)
				}
				in = true
			case BEXIT:
				if !in {
					return fmt.Errorf("isa: %s@%d: BEXIT outside a barrier region", p.Name, i)
				}
				in = false
			}
		}
	}
	if !allowCrossBarrier {
		ridx := p.regionIndex()
		regions := p.Regions()
		for i, in := range p.Code {
			if !in.Op.IsBranch() || !p.InBarrierRegion(i) {
				continue
			}
			t := in.Target
			if !p.InBarrierRegion(t) {
				continue // barrier -> non-barrier exit: legal
			}
			if t <= i {
				continue // backward: a loop's cross-iteration region
			}
			if ridx[i] != ridx[t] {
				return fmt.Errorf("isa: %s@%d: %w: branch from region %d [%d,%d) to region %d [%d,%d)",
					p.Name, i, ErrInvalidBranch,
					ridx[i], regions[ridx[i]].Start, regions[ridx[i]].End,
					ridx[t], regions[ridx[t]].Start, regions[ridx[t]].End)
			}
		}
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line, with
// labels, addresses and barrier-bit annotations.
func (p *Program) Disassemble() string {
	var b strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&b, "; program %s (mode=%s, %d instructions)\n", p.Name, p.Mode, len(p.Code))
	}
	for i, in := range p.Code {
		if in.Label != "" {
			fmt.Fprintf(&b, "%s:\n", in.Label)
		}
		fmt.Fprintf(&b, "%4d    %s\n", i, in.String())
	}
	return b.String()
}

// Stats summarizes the static region structure of a program.
type Stats struct {
	Instructions      int
	BarrierRegions    int
	NonBarrierRegions int
	BarrierInstrs     int
	NonBarrierInstrs  int
	LargestBarrier    int
}

// StaticStats computes region statistics for the program.
func (p *Program) StaticStats() Stats {
	var s Stats
	s.Instructions = len(p.Code)
	for _, r := range p.Regions() {
		if r.Barrier {
			s.BarrierRegions++
			s.BarrierInstrs += r.Len()
			if r.Len() > s.LargestBarrier {
				s.LargestBarrier = r.Len()
			}
		} else {
			s.NonBarrierRegions++
			s.NonBarrierInstrs += r.Len()
		}
	}
	return s
}
