package ir

import (
	"fmt"
	"strings"
)

// Block is a straight-line TAC sequence (no internal labels or branches),
// the unit the dependence DAG and the Section 4 reorderer operate on.
type Block []Instr

// Validate checks that the block really is straight-line except that a
// trailing control instruction is permitted (a loop's back-edge branch).
func (b Block) Validate() error {
	for i, in := range b {
		if in.IsControl() && i != len(b)-1 {
			return fmt.Errorf("ir: control instruction %q at %d inside straight-line block", in, i)
		}
	}
	return nil
}

// String renders the block one instruction per line.
func (b Block) String() string {
	var sb strings.Builder
	for _, in := range b {
		sb.WriteString("    ")
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Program is a complete TAC instruction sequence with labels.
type Program struct {
	Name string
	Code []Instr
}

// String renders the program with barrier-region banners in the style of
// Figure 4: alternating "Non-barrier:" and "Barrier:" sections derived
// from the instructions' Barrier flags.
func (p *Program) String() string {
	var sb strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&sb, "/* %s */\n", p.Name)
	}
	section := -1 // -1 unknown, 0 non-barrier, 1 barrier
	for _, in := range p.Code {
		want := 0
		if in.Barrier {
			want = 1
		}
		if want != section {
			section = want
			if want == 1 {
				sb.WriteString("Barrier:\n")
			} else {
				sb.WriteString("Non-barrier:\n")
			}
		}
		if in.Op == Label {
			fmt.Fprintf(&sb, "%s\n", in)
			continue
		}
		mark := " "
		if in.Marked {
			mark = "*"
		}
		fmt.Fprintf(&sb, "  %s %s\n", mark, in)
	}
	return sb.String()
}

// RegionStats describes the barrier/non-barrier split of a program — the
// quantity Figure 4 compares before and after reordering.
type RegionStats struct {
	Total      int // executable instructions (labels excluded)
	Barrier    int
	NonBarrier int
	Marked     int
}

// Stats computes RegionStats.
func (p *Program) Stats() RegionStats {
	var s RegionStats
	for _, in := range p.Code {
		if in.Op == Label {
			continue
		}
		s.Total++
		if in.Barrier {
			s.Barrier++
		} else {
			s.NonBarrier++
		}
		if in.Marked {
			s.Marked++
		}
	}
	return s
}

// Vars returns the distinct scalar variable names referenced, in first-use
// order.
func (p *Program) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	scan := func(o Operand) {
		if o.Kind == KindVar && !seen[o.Name] {
			seen[o.Name] = true
			out = append(out, o.Name)
		}
	}
	for _, in := range p.Code {
		scan(in.Dst)
		scan(in.A)
		scan(in.B)
	}
	return out
}
