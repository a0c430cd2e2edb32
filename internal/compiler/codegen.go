package compiler

import (
	"fmt"
	"slices"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/isa"
)

// isaProgram aliases the machine-code type so compiler.Task reads well.
type isaProgram = isa.Program

// Register conventions for generated code:
//
//	r1..r3   per-instruction scratch (constant materialization)
//	r4...    named scalar variables, then TAC temporaries
//
// Temporaries are register-allocated with a simple free-list: every TAC
// temp is defined once, so a register is recycled after the temp's last
// use. Because the Section 4 reordering already happened at the
// intermediate-code level, recycling here cannot constrain it — the paper
// notes that reordering after code generation is restricted by exactly
// these register reuse dependences.
const (
	scratch0 = isa.Reg(1)
	scratch1 = isa.Reg(2)
	scratch2 = isa.Reg(3)
	firstVar = 4
)

type regAlloc struct {
	varReg   map[string]isa.Reg
	tempReg  map[int]isa.Reg
	lastUse  map[int]int // temp -> index of last use
	free     []isa.Reg
	nextFree isa.Reg
}

func newRegAlloc(p *ir.Program) (*regAlloc, error) {
	ra := &regAlloc{
		varReg:  make(map[string]isa.Reg),
		tempReg: make(map[int]isa.Reg),
		lastUse: make(map[int]int),
	}
	next := isa.Reg(firstVar)
	for _, v := range p.Vars() {
		if next >= isa.NumRegs {
			return nil, fmt.Errorf("compiler: out of registers for scalar %q", v)
		}
		ra.varReg[v] = next
		next++
	}
	ra.nextFree = next
	for i, in := range p.Code {
		for _, u := range in.Uses() {
			if u.Kind == ir.KindTemp {
				ra.lastUse[u.ID] = i
			}
		}
		// A defined-but-never-used temp dies immediately.
		if d, ok := in.Defs(); ok && d.Kind == ir.KindTemp {
			if _, seen := ra.lastUse[d.ID]; !seen {
				ra.lastUse[d.ID] = i
			}
		}
	}
	return ra, nil
}

func (ra *regAlloc) allocTemp(id int) (isa.Reg, error) {
	if r, ok := ra.tempReg[id]; ok {
		return r, nil
	}
	var r isa.Reg
	if n := len(ra.free); n > 0 {
		r = ra.free[n-1]
		ra.free = ra.free[:n-1]
	} else {
		if ra.nextFree >= isa.NumRegs {
			return 0, fmt.Errorf("compiler: register pressure too high (temp T%d)", id)
		}
		r = ra.nextFree
		ra.nextFree++
	}
	ra.tempReg[id] = r
	return r, nil
}

// releaseDead recycles registers of temps whose last use is at or before
// index i, in ascending temp id so the free list — and with it the
// generated code — does not depend on map iteration order.
func (ra *regAlloc) releaseDead(i int) {
	var dead []int
	for id := range ra.tempReg {
		if ra.lastUse[id] <= i {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		ra.free = append(ra.free, ra.tempReg[id])
		delete(ra.tempReg, id)
	}
}

// codegen lowers a TAC program to machine code, carrying each TAC
// instruction's Barrier flag onto the emitted instructions.
func codegen(p *ir.Program, layout *Layout, opt Options, proc int) (*isa.Program, error) {
	ra, err := newRegAlloc(p)
	if err != nil {
		return nil, err
	}
	b := isa.NewBuilder(p.Name)

	constVal := func(o ir.Operand) (int64, bool) {
		switch o.Kind {
		case ir.KindConst:
			return o.Val, true
		case ir.KindBase:
			if layout == nil {
				return 0, false
			}
			a, ok := layout.Array(o.Name)
			if !ok {
				return 0, false
			}
			return a.Base, true
		}
		return 0, false
	}

	// ensure places an operand's value in a register, materializing
	// constants into the given scratch register.
	ensure := func(o ir.Operand, scratch isa.Reg) (isa.Reg, error) {
		switch o.Kind {
		case ir.KindTemp:
			r, ok := ra.tempReg[o.ID]
			if !ok {
				return 0, fmt.Errorf("compiler: use of undefined temp T%d", o.ID)
			}
			return r, nil
		case ir.KindVar:
			r, ok := ra.varReg[o.Name]
			if !ok {
				return 0, fmt.Errorf("compiler: use of unknown scalar %q", o.Name)
			}
			return r, nil
		case ir.KindConst, ir.KindBase:
			v, ok := constVal(o)
			if !ok {
				return 0, fmt.Errorf("compiler: unresolvable operand %v", o)
			}
			b.Ldi(scratch, v)
			return scratch, nil
		}
		return 0, fmt.Errorf("compiler: empty operand")
	}

	dest := func(o ir.Operand) (isa.Reg, error) {
		switch o.Kind {
		case ir.KindTemp:
			return ra.allocTemp(o.ID)
		case ir.KindVar:
			r, ok := ra.varReg[o.Name]
			if !ok {
				return 0, fmt.Errorf("compiler: assignment to unknown scalar %q", o.Name)
			}
			return r, nil
		}
		return 0, fmt.Errorf("compiler: bad destination %v", o)
	}

	arithOp := map[ir.Op]isa.Op{
		ir.Add: isa.ADD, ir.Sub: isa.SUB, ir.Mul: isa.MUL, ir.Div: isa.DIV, ir.Mod: isa.MOD,
	}
	arithOpI := map[ir.Op]isa.Op{
		ir.Add: isa.ADDI, ir.Sub: isa.SUBI, ir.Mul: isa.MULI, ir.Div: isa.DIVI,
	}
	relOp := map[ir.Rel]isa.Op{
		ir.LT: isa.BLT, ir.LE: isa.BLE, ir.GT: isa.BGT,
		ir.GE: isa.BGE, ir.EQ: isa.BEQ, ir.NE: isa.BNE,
	}

	// Prologue: the single barrier-initialization instruction.
	b.InNonBarrier()
	b.BarrierInit(int64(tag), uint64(core.AllExcept(opt.Procs, proc)))
	b.Comment("init barrier: tag=%d", tag)

	for i, in := range p.Code {
		if in.Barrier {
			b.InBarrier()
		} else {
			b.InNonBarrier()
		}
		switch in.Op {
		case ir.Nop:
			b.Nop()
		case ir.Label:
			b.Label(in.Target)
		case ir.Goto:
			b.Br(in.Target)
		case ir.IfGoto:
			rs, err := ensure(in.A, scratch0)
			if err != nil {
				return nil, err
			}
			rt, err := ensure(in.B, scratch1)
			if err != nil {
				return nil, err
			}
			b.CondBr(relOp[in.Rel], rs, rt, in.Target)
		case ir.Assign:
			rd, err := dest(in.Dst)
			if err != nil {
				return nil, err
			}
			if v, ok := constVal(in.A); ok {
				b.Ldi(rd, v)
			} else {
				rs, err := ensure(in.A, scratch0)
				if err != nil {
					return nil, err
				}
				b.Mov(rd, rs)
			}
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
			rd, err := dest(in.Dst)
			if err != nil {
				return nil, err
			}
			vB, bConst := constVal(in.B)
			vA, aConst := constVal(in.A)
			immOp, hasImm := arithOpI[in.Op]
			switch {
			case bConst && !aConst && hasImm:
				rs, err := ensure(in.A, scratch0)
				if err != nil {
					return nil, err
				}
				b.AluI(immOp, rd, rs, vB)
			case aConst && !bConst && hasImm && (in.Op == ir.Add || in.Op == ir.Mul):
				rs, err := ensure(in.B, scratch0)
				if err != nil {
					return nil, err
				}
				b.AluI(immOp, rd, rs, vA)
			default:
				rs, err := ensure(in.A, scratch0)
				if err != nil {
					return nil, err
				}
				rt, err := ensure(in.B, scratch1)
				if err != nil {
					return nil, err
				}
				b.Alu(arithOp[in.Op], rd, rs, rt)
			}
		case ir.Load:
			ra_, err := ensure(in.A, scratch0)
			if err != nil {
				return nil, err
			}
			rd, err := dest(in.Dst)
			if err != nil {
				return nil, err
			}
			b.Ld(rd, ra_, 0)
		case ir.Store:
			raddr, err := ensure(in.Dst, scratch0)
			if err != nil {
				return nil, err
			}
			rval, err := ensure(in.B, scratch1)
			if err != nil {
				return nil, err
			}
			b.St(raddr, 0, rval)
		default:
			return nil, fmt.Errorf("compiler: cannot generate code for %v", in)
		}
		if in.Comment != "" {
			b.Comment("%s", in.Comment)
		}
		ra.releaseDead(i)
	}
	b.InNonBarrier()
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return prog, nil
}
