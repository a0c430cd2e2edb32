package isa

import "fmt"

// Builder constructs Programs with symbolic labels and a current
// barrier-region flag, so callers write code in the order it executes and
// flip regions with InBarrier/InNonBarrier — mirroring how the paper's
// compiler lays out barrier and non-barrier regions.
type Builder struct {
	name    string
	mode    Mode
	code    []Instr
	labels  map[string]int
	pending string // label waiting to attach to the next instruction
	barrier bool
	errs    []error
}

// NewBuilder returns a Builder for a program using the per-instruction
// barrier-bit encoding.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, mode: ModeBit, labels: make(map[string]int)}
}

// NewMarkerBuilder returns a Builder for the BENTER/BEXIT marker encoding.
// InBarrier/InNonBarrier transitions emit marker instructions instead of
// setting bits.
func NewMarkerBuilder(name string) *Builder {
	return &Builder{name: name, mode: ModeMarker, labels: make(map[string]int)}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("isa builder %s: "+format, append([]any{b.name}, args...)...))
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	if b.pending == "" {
		b.pending = name
	}
	return b
}

// InBarrier switches subsequent instructions into a barrier region.
func (b *Builder) InBarrier() *Builder {
	if b.mode == ModeMarker && !b.barrier {
		b.emit(Instr{Op: BENTER})
	}
	b.barrier = true
	return b
}

// InNonBarrier switches subsequent instructions into a non-barrier region.
func (b *Builder) InNonBarrier() *Builder {
	if b.mode == ModeMarker && b.barrier {
		// The BEXIT itself belongs to the region it terminates.
		b.emitRaw(Instr{Op: BEXIT, Barrier: true})
	}
	b.barrier = false
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	in.Barrier = b.barrier
	return b.emitRaw(in)
}

func (b *Builder) emitRaw(in Instr) *Builder {
	if b.pending != "" {
		in.Label = b.pending
		b.pending = ""
	}
	b.code = append(b.code, in)
	return b
}

// Comment attaches a comment to the most recently emitted instruction.
func (b *Builder) Comment(format string, args ...any) *Builder {
	if len(b.code) == 0 {
		b.errf("comment with no instruction")
		return b
	}
	b.code[len(b.code)-1].Comment = fmt.Sprintf(format, args...)
	return b
}

// Nop emits NOP.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: NOP}) }

// Halt emits HALT.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: HALT}) }

// Ldi emits Rd <- imm.
func (b *Builder) Ldi(rd Reg, imm int64) *Builder {
	return b.emit(Instr{Op: LDI, Rd: rd, Imm: imm})
}

// Mov emits Rd <- Rs.
func (b *Builder) Mov(rd, rs Reg) *Builder {
	return b.emit(Instr{Op: MOV, Rd: rd, Rs: rs})
}

// Alu emits a three-register ALU instruction.
func (b *Builder) Alu(op Op, rd, rs, rt Reg) *Builder {
	switch op {
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SLT:
	default:
		b.errf("Alu called with non-ALU opcode %v", op)
	}
	return b.emit(Instr{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

// Add emits Rd <- Rs + Rt.
func (b *Builder) Add(rd, rs, rt Reg) *Builder { return b.Alu(ADD, rd, rs, rt) }

// Sub emits Rd <- Rs - Rt.
func (b *Builder) Sub(rd, rs, rt Reg) *Builder { return b.Alu(SUB, rd, rs, rt) }

// Mul emits Rd <- Rs * Rt.
func (b *Builder) Mul(rd, rs, rt Reg) *Builder { return b.Alu(MUL, rd, rs, rt) }

// AluI emits an immediate ALU instruction.
func (b *Builder) AluI(op Op, rd, rs Reg, imm int64) *Builder {
	switch op {
	case ADDI, SUBI, MULI, DIVI:
	default:
		b.errf("AluI called with non-immediate opcode %v", op)
	}
	return b.emit(Instr{Op: op, Rd: rd, Rs: rs, Imm: imm})
}

// Addi emits Rd <- Rs + imm.
func (b *Builder) Addi(rd, rs Reg, imm int64) *Builder { return b.AluI(ADDI, rd, rs, imm) }

// Ld emits Rd <- Mem[Rs+off].
func (b *Builder) Ld(rd, rs Reg, off int64) *Builder {
	return b.emit(Instr{Op: LD, Rd: rd, Rs: rs, Imm: off})
}

// St emits Mem[Rs+off] <- Rt.
func (b *Builder) St(rs Reg, off int64, rt Reg) *Builder {
	return b.emit(Instr{Op: ST, Rs: rs, Imm: off, Rt: rt})
}

// Faa emits Rd <- fetch-and-add(Mem[Rs+off], Rt).
func (b *Builder) Faa(rd, rs Reg, off int64, rt Reg) *Builder {
	return b.emit(Instr{Op: FAA, Rd: rd, Rs: rs, Imm: off, Rt: rt})
}

// Br emits an unconditional branch to a label.
func (b *Builder) Br(label string) *Builder {
	return b.emit(Instr{Op: BR, sym: label})
}

// CondBr emits a conditional branch comparing Rs against Rt.
func (b *Builder) CondBr(op Op, rs, rt Reg, label string) *Builder {
	if !op.IsConditional() {
		b.errf("CondBr called with non-conditional opcode %v", op)
	}
	return b.emit(Instr{Op: op, Rs: rs, Rt: rt, sym: label})
}

// BarrierInit emits BARRIER tag, mask.
func (b *Builder) BarrierInit(tag int64, mask uint64) *Builder {
	return b.emit(Instr{Op: BARRIER, Imm: tag, Imm2: int64(mask)})
}

// Work emits WORK cycles.
func (b *Builder) Work(cycles int64) *Builder {
	return b.emit(Instr{Op: WORK, Imm: cycles})
}

// WorkR emits WORKR (busy for the number of cycles in rs).
func (b *Builder) WorkR(rs Reg) *Builder {
	return b.emit(Instr{Op: WORKR, Rs: rs})
}

// Call emits CALL to a label.
func (b *Builder) Call(label string) *Builder {
	return b.emit(Instr{Op: CALL, sym: label})
}

// Ret emits RET.
func (b *Builder) Ret() *Builder { return b.emit(Instr{Op: RET}) }

// Build resolves labels and returns the program. It returns an error if
// any builder call was malformed or a branch references an undefined
// label. The returned program is NOT validated against the Figure 2 rule;
// call Program.Validate for that, since some experiments deliberately
// construct invalid programs.
func (b *Builder) Build() (*Program, error) {
	if b.pending != "" {
		// A trailing label: attach it to an implicit NOP so branches to
		// "end" work naturally.
		b.emit(Instr{Op: NOP, Comment: "label landing pad"})
	}
	for _, err := range b.errs {
		return nil, err
	}
	code := append([]Instr(nil), b.code...)
	for i := range code {
		if code[i].Op.IsBranch() || code[i].Op == CALL {
			addr, ok := b.labels[code[i].sym]
			if !ok {
				return nil, fmt.Errorf("isa builder %s: undefined label %q at instruction %d", b.name, code[i].sym, i)
			}
			code[i].Target = addr
		}
	}
	return &Program{Name: b.name, Mode: b.mode, Code: code}, nil
}

// MustBuild is Build that panics on error; intended for statically known
// programs in tests and workload generators.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
