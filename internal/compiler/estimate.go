package compiler

import "fuzzybarrier/internal/isa"

// Section 1: "estimates of the time taken to execute different parts of a
// program are first used by the compiler to schedule approximately equal
// amounts of work on each processor between successive barrier
// synchronizations." This file provides those estimates for generated
// machine code, using the simulator's default latencies. The
// estimates are static (straight-line weights; control flow counts each
// instruction once), which is exactly the fidelity a scheduling heuristic
// needs — the drift the estimate misses is what the barrier region
// absorbs at run time.

// Per-operation cycle weights; multiply and divide cost the simulator's
// isa.MulLatency and isa.DivLatency.
const (
	estALU = 1
	estMem = 2 // hit-biased average of load/store latency
)

// CycleEstimate is the static cost split of a task by region kind.
type CycleEstimate struct {
	NonBarrier int64
	Barrier    int64
}

// Total returns the combined estimate.
func (e CycleEstimate) Total() int64 { return e.NonBarrier + e.Barrier }

// BarrierShare returns the fraction of estimated cycles inside barrier
// regions — the quantity the compiler maximizes when it enlarges regions.
func (e CycleEstimate) BarrierShare() float64 {
	t := e.Total()
	if t == 0 {
		return 0
	}
	return float64(e.Barrier) / float64(t)
}

// estimateMachine computes the static cycle estimate of generated machine
// code, including WORK immediates.
func estimateMachine(p *isa.Program) CycleEstimate {
	var e CycleEstimate
	add := func(barrier bool, c int64) {
		if barrier {
			e.Barrier += c
		} else {
			e.NonBarrier += c
		}
	}
	for i, in := range p.Code {
		var c int64
		switch in.Op {
		case isa.MUL, isa.MULI:
			c = isa.MulLatency
		case isa.DIV, isa.DIVI, isa.MOD:
			c = isa.DivLatency
		case isa.LD, isa.ST, isa.FAA:
			c = estMem
		case isa.WORK:
			c = in.Imm
			if c < 1 {
				c = 1
			}
		default:
			c = estALU
		}
		add(p.InBarrierRegion(i), c)
	}
	return e
}

// Estimate returns the machine-level cycle estimate for a compiled task.
func (t *Task) Estimate() CycleEstimate {
	return estimateMachine(t.Machine)
}
