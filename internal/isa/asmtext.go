package isa

import (
	"fmt"
	"strings"
)

// AsmText renders the program as assembler source that Assemble parses
// back into an equivalent program: same instructions, same barrier-region
// structure, same labels (synthesizing labels for branch targets that
// lack one). It is the inverse of Assemble up to label naming, and is
// what cmd/fuzzsim-compatible files look like.
func (p *Program) AsmText() string {
	var sb strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&sb, ".program %s\n", sanitizeName(p.Name))
	}
	if p.Mode == ModeMarker {
		sb.WriteString(".mode marker\n")
	}

	// Ensure every branch target has a label.
	labels := make(map[int]string)
	for i, in := range p.Code {
		if in.Label != "" {
			labels[i] = in.Label
		}
	}
	next := 0
	for _, in := range p.Code {
		if !in.Op.IsBranch() && in.Op != CALL {
			continue
		}
		if _, ok := labels[in.Target]; !ok {
			for {
				cand := fmt.Sprintf("L%d", next)
				next++
				if !labelTaken(labels, cand) {
					labels[in.Target] = cand
					break
				}
			}
		}
	}

	inBar := false
	for i, in := range p.Code {
		if p.Mode == ModeBit && in.Barrier != inBar {
			inBar = in.Barrier
			if inBar {
				sb.WriteString(".barrier\n")
			} else {
				sb.WriteString(".nonbarrier\n")
			}
		}
		if lbl, ok := labels[i]; ok {
			fmt.Fprintf(&sb, "%s:\n", lbl)
		}
		sb.WriteString("    ")
		sb.WriteString(in.render(labels[in.Target]))
		if in.Comment != "" {
			sb.WriteString(" ; ")
			sb.WriteString(strings.ReplaceAll(in.Comment, "\n", " "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func labelTaken(labels map[int]string, name string) bool {
	for _, l := range labels {
		if l == name {
			return true
		}
	}
	return false
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "prog"
	}
	return string(out)
}
