package machine

import (
	"fmt"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/isa"
)

// execute issues instruction in on processor p at the current cycle. The
// caller has already settled region membership and barrier-unit state.
func (m *Machine) execute(p *processor, in isa.Instr, inBarrier bool) {
	p.stats.Instructions++
	if inBarrier {
		p.stats.BarrierInstrs++
	}
	nextPC := p.pc + 1
	issueLat := int64(1)

	switch in.Op {
	case isa.NOP:
		// nothing
	case isa.HALT:
		m.halt(p)
		return
	case isa.ADD:
		p.regs[in.Rd] = p.regs[in.Rs] + p.regs[in.Rt]
	case isa.SUB:
		p.regs[in.Rd] = p.regs[in.Rs] - p.regs[in.Rt]
	case isa.MUL:
		p.regs[in.Rd] = p.regs[in.Rs] * p.regs[in.Rt]
		issueLat = isa.MulLatency
	case isa.DIV:
		if p.regs[in.Rt] == 0 {
			p.fault = fmt.Errorf("machine: divide by zero at pc %d", p.pc)
			m.halt(p)
			return
		}
		p.regs[in.Rd] = p.regs[in.Rs] / p.regs[in.Rt]
		issueLat = isa.DivLatency
	case isa.MOD:
		if p.regs[in.Rt] == 0 {
			p.fault = fmt.Errorf("machine: modulo by zero at pc %d", p.pc)
			m.halt(p)
			return
		}
		p.regs[in.Rd] = p.regs[in.Rs] % p.regs[in.Rt]
		issueLat = isa.DivLatency
	case isa.AND:
		p.regs[in.Rd] = p.regs[in.Rs] & p.regs[in.Rt]
	case isa.OR:
		p.regs[in.Rd] = p.regs[in.Rs] | p.regs[in.Rt]
	case isa.XOR:
		p.regs[in.Rd] = p.regs[in.Rs] ^ p.regs[in.Rt]
	case isa.SHL:
		p.regs[in.Rd] = p.regs[in.Rs] << uint64(p.regs[in.Rt]&63)
	case isa.SHR:
		p.regs[in.Rd] = p.regs[in.Rs] >> uint64(p.regs[in.Rt]&63)
	case isa.SLT:
		if p.regs[in.Rs] < p.regs[in.Rt] {
			p.regs[in.Rd] = 1
		} else {
			p.regs[in.Rd] = 0
		}
	case isa.LDI:
		p.regs[in.Rd] = in.Imm
	case isa.MOV:
		p.regs[in.Rd] = p.regs[in.Rs]
	case isa.ADDI:
		p.regs[in.Rd] = p.regs[in.Rs] + in.Imm
	case isa.SUBI:
		p.regs[in.Rd] = p.regs[in.Rs] - in.Imm
	case isa.MULI:
		p.regs[in.Rd] = p.regs[in.Rs] * in.Imm
		issueLat = isa.MulLatency
	case isa.DIVI:
		if in.Imm == 0 {
			p.fault = fmt.Errorf("machine: divide by zero immediate at pc %d", p.pc)
			m.halt(p)
			return
		}
		p.regs[in.Rd] = p.regs[in.Rs] / in.Imm
		issueLat = isa.DivLatency
	case isa.LD:
		addr := p.regs[in.Rs] + in.Imm
		v, done, err := m.mem.Read(p.id, addr, m.cycle)
		if err != nil {
			p.fault = fmt.Errorf("machine: pc %d: %w", p.pc, err)
			m.halt(p)
			return
		}
		p.regs[in.Rd] = v
		p.busy = busyMem
		p.busyTil = done
	case isa.ST:
		addr := p.regs[in.Rs] + in.Imm
		done, err := m.mem.Write(p.id, addr, p.regs[in.Rt], m.cycle)
		if err != nil {
			p.fault = fmt.Errorf("machine: pc %d: %w", p.pc, err)
			m.halt(p)
			return
		}
		p.busy = busyMem
		p.busyTil = done
	case isa.FAA:
		addr := p.regs[in.Rs] + in.Imm
		old, done, err := m.mem.FetchAdd(p.id, addr, p.regs[in.Rt], m.cycle)
		if err != nil {
			p.fault = fmt.Errorf("machine: pc %d: %w", p.pc, err)
			m.halt(p)
			return
		}
		p.regs[in.Rd] = old
		p.busy = busyMem
		p.busyTil = done
	case isa.BR:
		nextPC = in.Target
	case isa.BEQ:
		if p.regs[in.Rs] == p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BNE:
		if p.regs[in.Rs] != p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BLT:
		if p.regs[in.Rs] < p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BLE:
		if p.regs[in.Rs] <= p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BGT:
		if p.regs[in.Rs] > p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BGE:
		if p.regs[in.Rs] >= p.regs[in.Rt] {
			nextPC = in.Target
		}
	case isa.BARRIER:
		m.net.Unit(p.id).SetBarrier(core.Tag(in.Imm), core.Mask(in.Imm2))
	case isa.WORK:
		if in.Imm > 1 {
			p.busy = busyWork
			p.busyTil = m.cycle + in.Imm
		}
	case isa.WORKR:
		if d := p.regs[in.Rs]; d > 1 {
			p.busy = busyWork
			p.busyTil = m.cycle + d
		}
	case isa.CALL:
		if len(p.callStack) >= callStackDepth {
			p.fault = fmt.Errorf("machine: call stack overflow at pc %d", p.pc)
			m.halt(p)
			return
		}
		p.callStack = append(p.callStack, p.pc+1)
		nextPC = in.Target
	case isa.RET:
		if len(p.callStack) == 0 {
			p.fault = fmt.Errorf("machine: RET with empty call stack at pc %d", p.pc)
			m.halt(p)
			return
		}
		nextPC = p.callStack[len(p.callStack)-1]
		p.callStack = p.callStack[:len(p.callStack)-1]
	case isa.BENTER:
		p.inBar = true
	case isa.BEXIT:
		p.inBar = false
	default:
		p.fault = fmt.Errorf("machine: unimplemented opcode %v at pc %d", in.Op, p.pc)
		m.halt(p)
		return
	}

	p.pc = nextPC
	if p.busy == busyNone && issueLat > 1 {
		p.busy = busyExec
		p.busyTil = m.cycle + issueLat
	} else if p.busy == busyNone {
		p.busyTil = m.cycle + 1
	}
}
