package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses assembler text into a Program. The syntax is one
// instruction per line:
//
//	; full-line comment
//	.program poisson        ; optional program name
//	.mode bit               ; or "marker"
//	.barrier                ; following instructions are in a barrier region
//	.nonbarrier             ; ... back to non-barrier code
//	loop:                   ; label
//	    LDI  r1, 5
//	    ADDI r2, r1, 3
//	    ADD  r3, r1, r2
//	    LD   r4, 8(r3)
//	    ST   r4, 0(r3)
//	    FAA  r5, 0(r6), r7
//	    BLT  r1, r2, loop
//	    BR   loop
//	    BARRIER 1, 0x6
//	    WORK 25
//	    HALT
//
// Everything after ';' on a line is a comment and becomes the
// instruction's Comment field.
func Assemble(src string) (*Program, error) {
	b := NewBuilder("asm")
	mode := ModeBit
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		comment := ""
		if i := strings.IndexByte(line, ';'); i >= 0 {
			comment = strings.TrimSpace(line[i+1:])
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Directives.
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".program":
				if len(fields) != 2 {
					return nil, asmErr(lineNo, ".program wants a name")
				}
				b.name = fields[1]
			case ".mode":
				if len(fields) != 2 {
					return nil, asmErr(lineNo, ".mode wants bit|marker")
				}
				switch fields[1] {
				case "bit":
					mode = ModeBit
				case "marker":
					mode = ModeMarker
				default:
					return nil, asmErr(lineNo, "unknown mode %q", fields[1])
				}
				b.mode = mode
			case ".barrier":
				b.InBarrier()
			case ".nonbarrier":
				b.InNonBarrier()
			default:
				return nil, asmErr(lineNo, "unknown directive %q", fields[0])
			}
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, asmErr(lineNo, "malformed label %q", line[:i])
			}
			b.Label(label)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleInstr(b, line, comment); err != nil {
			return nil, asmErr(lineNo, "%v", err)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return p, nil
}

func asmErr(line int, format string, args ...any) error {
	return fmt.Errorf("asm line %d: %s", line, fmt.Sprintf(format, args...))
}

var opByName = func() map[string]Op {
	m := make(map[string]Op)
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func assembleInstr(b *Builder, line, comment string) error {
	mn := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, ok := opByName[strings.ToUpper(mn)]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	args := splitArgs(rest)
	emit := func(in Instr) {
		b.emit(in)
		if comment != "" {
			b.Comment("%s", comment)
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	switch op {
	case RET:
		if err := need(0); err != nil {
			return err
		}
		emit(Instr{Op: op})
	case CALL:
		if err := need(1); err != nil {
			return err
		}
		emit(Instr{Op: op, sym: args[0]})
	case NOP, HALT, BENTER, BEXIT:
		if err := need(0); err != nil {
			return err
		}
		if op == BENTER || op == BEXIT {
			// Markers are emitted through region transitions in builder
			// programs, but raw assembly may place them directly.
			b.emitRaw(Instr{Op: op, Barrier: op == BEXIT, Comment: comment})
			if op == BENTER {
				b.barrier = true
				b.code[len(b.code)-1].Barrier = true
			} else {
				b.barrier = false
			}
			return nil
		}
		emit(Instr{Op: op})
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SLT:
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		rt, err3 := parseReg(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})
	case LDI:
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		imm, err2 := parseImm(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Imm: imm})
	case MOV:
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Rs: rs})
	case ADDI, SUBI, MULI, DIVI:
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		imm, err3 := parseImm(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Rs: rs, Imm: imm})
	case LD:
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		off, rs, err2 := parseMem(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Rs: rs, Imm: off})
	case ST:
		if err := need(2); err != nil {
			return err
		}
		rt, err1 := parseReg(args[0])
		off, rs, err2 := parseMem(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Rt: rt, Rs: rs, Imm: off})
	case FAA:
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := parseReg(args[0])
		off, rs, err2 := parseMem(args[1])
		rt, err3 := parseReg(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		emit(Instr{Op: op, Rd: rd, Rs: rs, Imm: off, Rt: rt})
	case BR:
		if err := need(1); err != nil {
			return err
		}
		emit(Instr{Op: op, sym: args[0]})
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		if err := need(3); err != nil {
			return err
		}
		rs, err1 := parseReg(args[0])
		rt, err2 := parseReg(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Rs: rs, Rt: rt, sym: args[2]})
	case BARRIER:
		if err := need(2); err != nil {
			return err
		}
		tag, err1 := parseImm(strings.TrimPrefix(args[0], "tag="))
		mask, err2 := parseImm(strings.TrimPrefix(args[1], "mask="))
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		emit(Instr{Op: op, Imm: tag, Imm2: mask})
	case WORK:
		if err := need(1); err != nil {
			return err
		}
		imm, err := parseImm(args[0])
		if err != nil {
			return err
		}
		emit(Instr{Op: op, Imm: imm})
	case WORKR:
		if err := need(1); err != nil {
			return err
		}
		rs, err := parseReg(args[0])
		if err != nil {
			return err
		}
		emit(Instr{Op: op, Rs: rs})
	default:
		return fmt.Errorf("unhandled opcode %v", op)
	}
	return nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func parseReg(s string) (Reg, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "off(rN)".
func parseMem(s string) (off int64, base Reg, err error) {
	open := strings.IndexByte(s, '(')
	close := strings.IndexByte(s, ')')
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		offStr = "0"
	}
	off, err = parseImm(offStr)
	if err != nil {
		return 0, 0, err
	}
	base, err = parseReg(strings.TrimSpace(s[open+1 : close]))
	return off, base, err
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
