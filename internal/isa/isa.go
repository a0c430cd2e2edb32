// Package isa defines the RISC-like instruction set executed by the
// multiprocessor simulator in internal/machine.
//
// Following Section 6 of the paper, every instruction carries a single
// barrier-region bit: the bit is one if the instruction belongs to a
// barrier region and zero otherwise. The package also supports the paper's
// alternative encoding — explicit BENTER/BEXIT marker instructions — so the
// two encodings can be compared (DESIGN.md ablation "Region encoding").
//
// The ISA is deliberately small: integer ALU ops, loads/stores, branches, a
// fetch-and-add for building software barriers inside the simulator, a
// synthetic WORK instruction for controllable busy time, and BARRIER for
// loading the tag/mask register of the fuzzy-barrier hardware.
package isa

import "fmt"

// Reg names a general-purpose register. The simulator provides NumRegs
// registers per processor; register 0 is ordinary (not hardwired to zero).
type Reg uint8

// NumRegs is the number of general-purpose registers per processor.
const NumRegs = 64

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	HALT
	// ALU register forms: Rd <- Rs op Rt.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	SLT // Rd <- 1 if Rs < Rt else 0
	// Immediate forms: Rd <- Rs op Imm (LDI: Rd <- Imm; MOV: Rd <- Rs).
	LDI
	MOV
	ADDI
	SUBI
	MULI
	DIVI
	// Memory: LD Rd <- Mem[Rs+Imm]; ST Mem[Rs+Imm] <- Rt.
	LD
	ST
	// FAA atomically adds Rt to Mem[Rs+Imm] and returns the old value in
	// Rd. It exists so software barriers (the baselines of experiment E2)
	// can be written as simulator programs.
	FAA
	// Control flow. Branches compare Rs against Rt.
	BR  // unconditional, to Target
	BEQ // if Rs == Rt
	BNE // if Rs != Rt
	BLT // if Rs <  Rt
	BLE // if Rs <= Rt
	BGT // if Rs >  Rt
	BGE // if Rs >= Rt
	// BARRIER loads the processor's barrier register: tag from Imm, mask
	// from Imm2 (bit j set = synchronize with processor j). This is the
	// paper's "single instruction ... to initialize a barrier".
	BARRIER
	// WORK keeps the processor busy for Imm cycles; it stands in for
	// loop-body computation whose exact content is irrelevant to an
	// experiment.
	WORK
	// WORKR is WORK with the duration taken from register Rs, for
	// workloads whose per-iteration cost is computed at run time.
	WORKR
	// CALL pushes the return address onto the processor's internal call
	// stack and jumps to Target; RET pops and returns. They exist to
	// study the Section 9 future-work question of procedure calls from
	// barrier regions (experiment E13).
	CALL
	RET
	// BENTER/BEXIT are the alternative region encoding of Section 6:
	// explicit instructions marking entry to and exit from a barrier
	// region. In marker mode the simulator derives region membership from
	// these instead of the per-instruction bit.
	BENTER
	BEXIT
	numOps // sentinel; must stay last
)

var opNames = [...]string{
	NOP: "NOP", HALT: "HALT",
	ADD: "ADD", SUB: "SUB", MUL: "MUL", DIV: "DIV", MOD: "MOD",
	AND: "AND", OR: "OR", XOR: "XOR", SHL: "SHL", SHR: "SHR", SLT: "SLT",
	LDI: "LDI", MOV: "MOV", ADDI: "ADDI", SUBI: "SUBI", MULI: "MULI", DIVI: "DIVI",
	LD: "LD", ST: "ST", FAA: "FAA",
	BR: "BR", BEQ: "BEQ", BNE: "BNE", BLT: "BLT", BLE: "BLE", BGT: "BGT", BGE: "BGE",
	BARRIER: "BARRIER", WORK: "WORK", WORKR: "WORKR", CALL: "CALL", RET: "RET",
	BENTER: "BENTER", BEXIT: "BEXIT",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", int(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsBranch reports whether the opcode transfers control.
func (o Op) IsBranch() bool {
	switch o {
	case BR, BEQ, BNE, BLT, BLE, BGT, BGE:
		return true
	}
	return false
}

// IsConditional reports whether the branch is conditional.
func (o Op) IsConditional() bool { return o.IsBranch() && o != BR }

// IsMemory reports whether the opcode accesses memory.
func (o Op) IsMemory() bool { return o == LD || o == ST || o == FAA }

// Instr is a single machine instruction.
//
// Barrier is the paper's per-instruction barrier-region bit. In marker
// mode (programs built around BENTER/BEXIT) the bit is ignored by the
// simulator and region membership is tracked dynamically.
type Instr struct {
	Op      Op
	Rd      Reg
	Rs      Reg
	Rt      Reg
	Imm     int64
	Imm2    int64  // second immediate: mask operand of BARRIER
	Target  int    // resolved branch target (instruction index)
	Label   string // optional label naming this instruction
	sym     string // unresolved branch target symbol (used by the assembler/builder)
	Barrier bool   // barrier-region bit
	Comment string
}

// String renders the instruction in assembler syntax (without label).
func (in Instr) String() string {
	bit := ""
	if in.Barrier {
		bit = " !b"
	}
	body := func() string {
		switch in.Op {
		case NOP, HALT, BENTER, BEXIT:
			return in.Op.String()
		case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SLT:
			return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs, in.Rt)
		case LDI:
			return fmt.Sprintf("LDI r%d, %d", in.Rd, in.Imm)
		case MOV:
			return fmt.Sprintf("MOV r%d, r%d", in.Rd, in.Rs)
		case ADDI, SUBI, MULI, DIVI:
			return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs, in.Imm)
		case LD:
			return fmt.Sprintf("LD r%d, %d(r%d)", in.Rd, in.Imm, in.Rs)
		case ST:
			return fmt.Sprintf("ST r%d, %d(r%d)", in.Rt, in.Imm, in.Rs)
		case FAA:
			return fmt.Sprintf("FAA r%d, %d(r%d), r%d", in.Rd, in.Imm, in.Rs, in.Rt)
		case BR:
			return fmt.Sprintf("BR %s", in.targetStr())
		case BEQ, BNE, BLT, BLE, BGT, BGE:
			return fmt.Sprintf("%s r%d, r%d, %s", in.Op, in.Rs, in.Rt, in.targetStr())
		case BARRIER:
			return fmt.Sprintf("BARRIER tag=%d, mask=%#x", in.Imm, in.Imm2)
		case WORK:
			return fmt.Sprintf("WORK %d", in.Imm)
		case WORKR:
			return fmt.Sprintf("WORKR r%d", in.Rs)
		case CALL:
			return fmt.Sprintf("CALL %s", in.targetStr())
		case RET:
			return "RET"
		}
		return in.Op.String()
	}()
	if in.Comment != "" {
		return body + bit + " ; " + in.Comment
	}
	return body + bit
}

func (in Instr) targetStr() string {
	if in.sym != "" {
		return in.sym
	}
	return fmt.Sprintf("@%d", in.Target)
}
