// Package machine is a deterministic cycle-level simulator of the
// prototype multiprocessor the paper targets: N RISC processors on a
// common clock, each with a private copy of the fuzzy-barrier hardware
// (internal/core.Unit) connected by broadcast ready lines, sharing a
// memory system (internal/mem).
//
// Every cycle, each processor either issues one instruction, waits for a
// multi-cycle instruction or memory access to complete, or stalls at the
// end of a barrier region waiting for synchronization. At the end of each
// cycle the barrier network evaluates the synchronization condition for
// all processors simultaneously, exactly as the hardware's combinational
// logic would.
//
// Determinism is the point: unlike wall-clock measurements on a real
// multiprocessor (or on goroutines), stall cycles attributable to barrier
// synchronization can be counted exactly, which is what the experiment
// harness reports.
package machine

import (
	"errors"
	"fmt"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/trace"
)

// Config describes a simulated machine.
type Config struct {
	// Procs is the number of processors (1..64).
	Procs int
	// Mem configures the shared-memory system. Mem.Procs is overridden
	// with Procs.
	Mem mem.Config
	// PipelineDepth models instruction-completion lag: a processor's
	// ready line rises PipelineDepth−1 cycles after it issues the first
	// instruction of a barrier region, because the last non-barrier
	// instruction is still in the pipe (Section 2's exit-vs-enter
	// distinction). Depth 1 (default) is the non-pipelined machine where
	// exiting one region and entering the next coincide.
	PipelineDepth int64
	// IssueWidth enables a simple VLIW/LIW issue mode (Section 9 notes
	// the prototype "will be used for executing code in VLIW mode"): up
	// to IssueWidth consecutive single-cycle ALU instructions with the
	// same barrier-region bit issue in one cycle. Branches, memory
	// operations, multi-cycle arithmetic and region transitions end a
	// bundle. Default 1 (scalar issue).
	IssueWidth int
	// InterruptEvery, when > 0, preempts each processor for
	// InterruptCost cycles after every InterruptEvery issued
	// instructions (staggered per processor) — a deterministic model of
	// the interrupts and traps Section 9 leaves as future work. RISC
	// systems of the era used traps even for floating-point operations,
	// so tolerance to them matters.
	InterruptEvery int64
	// InterruptCost is the preemption length in cycles (default 20 when
	// InterruptEvery is set).
	InterruptCost int64
	// MaxCycles aborts runaway simulations (default 50,000,000).
	MaxCycles int64
	// Recorder, if non-nil, records per-cycle Gantt lanes and events.
	Recorder *trace.Recorder
	// Phases, if non-nil, attributes every processor-cycle to a
	// (barrier-episode, activity-kind) pair; see trace.Phases. Both
	// hooks follow the same discipline: nil disables them with zero
	// allocation on the simulation hot path.
	Phases *trace.Phases
	// DisableFastForward forces the naive per-cycle simulation loop.
	// The fast-forward engine (see Run) produces bit-identical results,
	// statistics, phase attribution and traces; this knob exists for the
	// equivalence tests and for benchmarking the speedup.
	DisableFastForward bool
}

func (c *Config) normalize() {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.Procs > 64 {
		c.Procs = 64
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	if c.InterruptEvery > 0 && c.InterruptCost <= 0 {
		c.InterruptCost = 20
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 50_000_000
	}
	c.Mem.Procs = c.Procs
}

// callStackDepth bounds the per-processor CALL stack.
const callStackDepth = 64

// busyKind tags why a processor is occupied for multiple cycles.
type busyKind byte

const (
	busyNone busyKind = iota
	busyExec          // multi-cycle ALU op
	busyMem           // memory access in flight
	busyWork          // synthetic WORK
	busyIrq           // interrupt/trap preemption
)

// processor is the per-CPU simulator state.
type processor struct {
	id        int
	prog      *isa.Program
	code      []isa.Instr // prog.Code, cached to skip the pointer chase per cycle
	flags     []instrFlag // predecoded per-instruction metadata (same length as code)
	pc        int
	regs      [isa.NumRegs]int64
	halted    bool
	fault     error
	busyTil   int64 // next cycle at which an instruction may issue
	busy      busyKind
	inBar     bool  // marker-mode region membership
	enterAt   int64 // pipelined: cycle at which the pending EnterBarrier fires (-1 none)
	sinceIrq  int64 // instructions issued since the last interrupt
	callStack []int // CALL return addresses

	stats ProcStats
}

// ProcStats aggregates one processor's activity over a run.
type ProcStats struct {
	Instructions  int64 // instructions issued
	BarrierInstrs int64 // of which barrier-region instructions
	StallCycles   int64 // cycles stalled at a barrier-region exit
	MemCycles     int64 // cycles waiting on memory
	WorkCycles    int64 // cycles consumed by WORK
	IrqCycles     int64 // cycles lost to injected interrupts
	Syncs         int64 // barrier synchronizations completed
	HaltCycle     int64 // cycle at which HALT issued (or end of run)
	Halted        bool
}

// Machine is a configured simulator instance. Create with New, load one
// program per processor, then Run.
type Machine struct {
	cfg   Config
	mem   *mem.System
	net   *core.Network
	procs []*processor
	cycle int64

	decodeCache map[*isa.Program][]instrFlag
	firedBuf    []int // reused by the per-cycle synchronization detection
}

// New creates a machine.
func New(cfg Config) *Machine {
	cfg.normalize()
	m := &Machine{
		cfg: cfg,
		mem: mem.New(cfg.Mem),
		net: core.NewNetwork(cfg.Procs),
	}
	m.procs = make([]*processor, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &processor{id: i, halted: true, enterAt: -1}
	}
	return m
}

// Mem exposes the shared memory system (for initialization and result
// inspection).
func (m *Machine) Mem() *mem.System { return m.mem }

// Load assigns a program to processor p and resets its state. A processor
// with no program stays halted and does not participate.
func (m *Machine) Load(p int, prog *isa.Program) error {
	if p < 0 || p >= len(m.procs) {
		return fmt.Errorf("machine: processor %d out of range [0,%d)", p, len(m.procs))
	}
	if prog == nil || prog.Len() == 0 {
		return fmt.Errorf("machine: empty program for processor %d", p)
	}
	pr := m.procs[p]
	*pr = processor{id: p, prog: prog, code: prog.Code, flags: m.decoded(prog), enterAt: -1}
	return nil
}

// ErrDeadlock is wrapped by Run's error when the machine reaches a state
// from which no processor can ever make progress — e.g. the Figure 2
// invalid branch, or a barrier whose partner halted.
var ErrDeadlock = errors.New("machine: barrier deadlock")

// errMaxCycles is wrapped when the simulation exceeds Config.MaxCycles.
var errMaxCycles = errors.New("machine: cycle limit exceeded")

// Result summarizes a completed run.
type Result struct {
	Cycles     int64
	Procs      []ProcStats
	Mem        mem.Stats
	Deadlocked bool
	// Faults collects per-processor execution faults (bad address,
	// divide by zero); a faulted processor halts, others continue.
	Faults []error
}

// TotalStalls sums stall cycles across processors.
func (r *Result) TotalStalls() int64 {
	var s int64
	for _, p := range r.Procs {
		s += p.StallCycles
	}
	return s
}

// Syncs returns the maximum per-processor synchronization count (the
// number of barrier episodes the slowest participant completed).
func (r *Result) Syncs() int64 {
	var s int64
	for _, p := range r.Procs {
		if p.Syncs > s {
			s = p.Syncs
		}
	}
	return s
}

// Run simulates until every loaded processor halts, a deadlock is
// detected, or the cycle limit is hit. It can be called once per Machine.
//
// The loop fast-forwards over uninteresting cycles: when every live
// processor is either busy until a known cycle (multi-cycle ALU op,
// memory access, WORK, interrupt) or provably stalled until an external
// event (a barrier release or a pending pipelined entry), the clock
// jumps straight to the earliest such deadline, attributing the skipped
// cycles in bulk. The skip is exact — statistics, phase attribution and
// recorded traces are bit-identical to the naive per-cycle loop (set
// Config.DisableFastForward to compare) — because during a skipped span
// no processor issues an instruction, so no ready line, tag or memory
// state can change and the barrier network provably cannot fire.
func (m *Machine) Run() (*Result, error) {
	res := &Result{}
	rec := m.cfg.Recorder
	for {
		if m.cycle >= m.cfg.MaxCycles {
			m.finish(res)
			return res, fmt.Errorf("%w: %d cycles", errMaxCycles, m.cfg.MaxCycles)
		}
		if !m.cfg.DisableFastForward {
			m.fastForward()
			if m.cycle >= m.cfg.MaxCycles {
				m.finish(res)
				return res, fmt.Errorf("%w: %d cycles", errMaxCycles, m.cfg.MaxCycles)
			}
		}
		progress := false
		allHalted := true
		for _, p := range m.procs {
			if p.halted {
				continue
			}
			allHalted = false
			if m.step(p) {
				progress = true
			}
		}
		if allHalted {
			m.finish(res)
			return res, nil
		}
		// Fire pipelined barrier entries whose delay elapsed. A pending
		// entry is guaranteed future progress, so it also keeps the
		// deadlock detector quiet until the line rises.
		for _, p := range m.procs {
			if p.enterAt < 0 {
				continue
			}
			if m.cycle >= p.enterAt {
				m.net.Unit(p.id).EnterBarrier()
				p.enterAt = -1
			}
			progress = true
		}
		// Simultaneous synchronization detection.
		m.firedBuf = m.net.StepCollect(m.firedBuf[:0])
		for _, i := range m.firedBuf {
			progress = true
			if rec.Enabled() {
				rec.Mark(m.cycle, i, trace.KindSync)
				rec.Eventf(m.cycle, i, "synchronized (tag=%d, epoch=%d)", m.net.Unit(i).Tag(), m.net.Unit(i).Syncs())
			}
			// One barrier episode ends for processor i: cycles
			// accounted from here on belong to the next phase. (The
			// KindSync lane mark above is presentation-only — the
			// cycle's activity was already attributed by step.)
			m.cfg.Phases.Advance(i)
		}
		if !progress {
			m.finish(res)
			res.Deadlocked = true
			return res, fmt.Errorf("%w at cycle %d: %s", ErrDeadlock, m.cycle, m.deadlockInfo())
		}
		m.cycle++
	}
}

// fastForward advances the clock to the next interesting cycle when the
// current one (and every one up to it) is provably uneventful, doing the
// per-cycle accounting of the skipped span in bulk. It leaves the clock
// unchanged unless *every* live processor is busy or boringly stalled.
//
// An "interesting" cycle is one at which some processor can issue an
// instruction or a pending pipelined barrier entry fires: the minimum
// over all busy-until deadlines and pending enterAt times. Cycles
// strictly before it are uniform — busy processors keep burning their
// latency, stalled processors keep stalling (their release requires a
// partner's ready line to rise, which only instruction issue or a
// pending entry can cause) and the barrier network's inputs are frozen,
// so Network.Step is a no-op for the whole span. If no deadline exists
// (every processor stalled forever) nothing is skipped and the naive
// loop's deadlock detection runs unchanged.
func (m *Machine) fastForward() {
	next := int64(-1)
	for _, p := range m.procs {
		var deadline int64 = -1
		if p.enterAt >= 0 {
			// A pending pipelined entry raises a ready line at enterAt
			// even if its processor has since halted.
			deadline = p.enterAt
		}
		if !p.halted {
			if p.busyTil > m.cycle {
				if deadline < 0 || p.busyTil < deadline {
					deadline = p.busyTil
				}
			} else if !m.boringStall(p) {
				// The processor issues an instruction this cycle (or
				// faults): the present is already interesting.
				return
			}
		}
		if deadline >= 0 && (next < 0 || deadline < next) {
			next = deadline
		}
	}
	if next <= m.cycle {
		// No future event (deadlock — leave it to the naive loop) or the
		// event is due this very cycle.
		return
	}
	if next > m.cfg.MaxCycles {
		next = m.cfg.MaxCycles
	}
	n := next - m.cycle
	if n <= 0 {
		return
	}
	for _, p := range m.procs {
		if p.halted {
			continue
		}
		if p.busyTil > m.cycle {
			switch p.busy {
			case busyMem:
				p.stats.MemCycles += n
				m.markN(p.id, trace.KindMemory, n)
			case busyWork:
				p.stats.WorkCycles += n
				m.markN(p.id, trace.KindWork, n)
			case busyIrq:
				p.stats.IrqCycles += n
				m.markN(p.id, trace.KindInterrupt, n)
			default:
				m.markN(p.id, trace.KindExec, n)
			}
		} else {
			p.stats.StallCycles += n
			m.markN(p.id, trace.KindStall, n)
		}
	}
	m.cycle = next
}

// boringStall reports whether processor p (live, not busy) is certain to
// spend this cycle — and every following cycle until some other event —
// stalled at a barrier-region boundary. True only when the pending
// instruction is non-barrier and either the pipelined ready line has not
// risen yet (enterAt pending) or the barrier unit is already waiting for
// a synchronization that only a partner's future instruction issue can
// complete. Anything else (a fault, an issueable instruction, a
// just-synced unit about to cross) makes the cycle interesting.
func (m *Machine) boringStall(p *processor) bool {
	if p.pc < 0 || p.pc >= len(p.code) {
		return false
	}
	if m.instrInBarrier(p, p.pc) {
		return false
	}
	if p.enterAt >= 0 {
		return true
	}
	switch m.net.Unit(p.id).State() {
	case core.StateInBarrier, core.StateStalled:
		// TryCross would fail: the network evaluated this unit against
		// the current ready lines at the end of the previous cycle and
		// did not fire it, and those lines cannot change while every
		// processor is busy or stalled.
		return true
	}
	return false
}

// markN is the bulk form of mark: it attributes the n cycles starting at
// the current one to activity kind k for processor p.
func (m *Machine) markN(p int, k trace.Kind, n int64) {
	m.cfg.Recorder.MarkN(m.cycle, n, p, k)
	m.cfg.Phases.AccountN(p, k, n)
}

func (m *Machine) deadlockInfo() string {
	s := ""
	for _, p := range m.procs {
		u := m.net.Unit(p.id)
		s += fmt.Sprintf("[P%d pc=%d state=%s ready=%v tag=%d halted=%v] ",
			p.id, p.pc, u.State(), u.Ready(), u.Tag(), p.halted)
	}
	return s
}

func (m *Machine) finish(res *Result) {
	res.Cycles = m.cycle
	res.Mem = m.mem.Stats()
	res.Procs = make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		p.stats.Syncs = m.net.Unit(i).Syncs()
		p.stats.Halted = p.halted
		if p.prog == nil {
			p.stats.Halted = true
		}
		res.Procs[i] = p.stats
		if p.fault != nil {
			res.Faults = append(res.Faults, fmt.Errorf("P%d: %w", i, p.fault))
		}
	}
}

// mark attributes the current cycle's activity of processor p to both
// observability sinks: the Gantt lane and the per-phase aggregator. Both
// are nil-safe no-ops when disabled.
func (m *Machine) mark(p int, k trace.Kind) {
	m.cfg.Recorder.Mark(m.cycle, p, k)
	m.cfg.Phases.Account(p, k)
}

// step advances processor p by one cycle; it returns true if the
// processor did anything other than stall.
func (m *Machine) step(p *processor) bool {
	u := m.net.Unit(p.id)

	if p.busyTil > m.cycle {
		switch p.busy {
		case busyMem:
			p.stats.MemCycles++
			m.mark(p.id, trace.KindMemory)
		case busyWork:
			p.stats.WorkCycles++
			m.mark(p.id, trace.KindWork)
		case busyIrq:
			p.stats.IrqCycles++
			m.mark(p.id, trace.KindInterrupt)
		default:
			m.mark(p.id, trace.KindExec)
		}
		return true
	}
	p.busy = busyNone

	if p.pc < 0 || p.pc >= len(p.code) {
		p.fault = fmt.Errorf("machine: pc %d out of range [0,%d)", p.pc, len(p.code))
		m.halt(p)
		return true
	}
	in := p.code[p.pc]
	inBarrier := m.instrInBarrier(p, p.pc)

	if inBarrier {
		if u.State() == core.StateNonBarrier {
			// Exiting the preceding non-barrier region. With a pipeline,
			// the ready line rises only when that region's last
			// instruction completes.
			if m.cfg.PipelineDepth > 1 {
				if p.enterAt < 0 {
					p.enterAt = m.cycle + m.cfg.PipelineDepth - 1
				}
			} else {
				u.EnterBarrier()
			}
		}
		m.mark(p.id, trace.KindBarrier)
	} else {
		if p.enterAt >= 0 {
			// The region was shorter than the pipeline: the ready line
			// has not risen yet, so the processor cannot cross — it must
			// wait for the delayed line and then for synchronization.
			p.stats.StallCycles++
			m.mark(p.id, trace.KindStall)
			return false
		}
		if !u.TryCross() {
			// End of barrier region reached before synchronization:
			// stall (Section 2's Condition for Stalling).
			p.stats.StallCycles++
			m.mark(p.id, trace.KindStall)
			return false
		}
		m.mark(p.id, trace.KindExec)
	}

	m.execute(p, in, inBarrier)
	m.maybeInterrupt(p)

	// VLIW bundling: issue further bundleable instructions this cycle.
	for issued := 1; issued < m.cfg.IssueWidth; issued++ {
		if p.halted || p.busy != busyNone || p.busyTil > m.cycle+1 {
			break
		}
		if p.pc < 0 || p.pc >= len(p.code) {
			break
		}
		next := p.code[p.pc]
		if p.flags[p.pc]&flagBundleable == 0 || m.instrInBarrier(p, p.pc) != inBarrier {
			break
		}
		m.execute(p, next, inBarrier)
		m.maybeInterrupt(p)
	}
	return true
}

// maybeInterrupt injects the deterministic preemption configured by
// InterruptEvery/InterruptCost. The injection point is after instruction
// issue, so interrupts land inside barrier regions as readily as outside
// them; per-processor staggering (by id) makes processors drift apart,
// which is the disturbance the fuzzy barrier must absorb.
func (m *Machine) maybeInterrupt(p *processor) {
	if m.cfg.InterruptEvery <= 0 || p.halted {
		return
	}
	p.sinceIrq++
	if (p.sinceIrq+int64(p.id)*3)%m.cfg.InterruptEvery == 0 {
		start := m.cycle + 1
		if p.busyTil > start {
			start = p.busyTil
		}
		p.busy = busyIrq
		p.busyTil = start + m.cfg.InterruptCost
	}
}

// instrInBarrier decides region membership of the instruction at index
// idx, about to issue, under the program's encoding mode, using the
// predecoded flags. In marker mode the BENTER instruction itself is the
// first region instruction and BEXIT the last.
func (m *Machine) instrInBarrier(p *processor, idx int) bool {
	f := p.flags[idx]
	if p.prog.Mode == isa.ModeBit {
		return f&flagBarrierBit != 0
	}
	return f&flagMarker != 0 || p.inBar
}

func (m *Machine) halt(p *processor) {
	p.halted = true
	p.stats.HaltCycle = m.cycle
	if rec := m.cfg.Recorder; rec.Enabled() {
		rec.Mark(m.cycle, p.id, trace.KindHalted)
		if p.fault != nil {
			rec.Eventf(m.cycle, p.id, "fault: %v", p.fault)
		} else {
			rec.Eventf(m.cycle, p.id, "halted")
		}
	}
}
