package exp

import (
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/workload"
)

// E14 parameters: the E1 drift workload (4 processors, 200-cycle body,
// 80-cycle jitter) shrunk to a dozen iterations so each barrier episode
// is one readable table row.
const (
	e14Procs  = 4
	e14Iters  = 12
	e14Body   = 200
	e14Jitter = 80
	e14Region = 40
)

// E14PhaseAttribution exercises the observability layer end to end:
// a trace.Phases aggregator attributes every processor-cycle of the
// drift workload to its barrier episode, so stall time is visible per
// phase instead of only as the end-of-run total. The table's stall
// column summed over rows must equal the aggregate stall counter the
// simulator reports — the cross-check the note records (and the harness
// test asserts).
func E14PhaseAttribution() (*trace.Table, error) {
	ph, res, err := e14Run()
	if err != nil {
		return nil, err
	}
	t := ph.Table("E14: per-phase cycle attribution, drift workload (4 processors, region 40)")

	var phaseStalls int64
	for phase := 0; phase < ph.NumPhases(); phase++ {
		phaseStalls += ph.PhaseCycles(phase, trace.KindStall)
	}
	if phaseStalls == res.TotalStalls() {
		t.AddNote("per-phase stall cycles sum to the aggregate stall total (%d)", res.TotalStalls())
	} else {
		t.AddNote("WARNING: per-phase stall sum %d != aggregate %d", phaseStalls, res.TotalStalls())
	}
	t.AddNote("phase k is the cycles each processor spends between its (k-1)-th and k-th synchronization; the final row is the post-sync tail (loop exit, halt)")
	return t, nil
}

// e14Run executes the drift workload with phase attribution enabled.
func e14Run() (*trace.Phases, *machine.Result, error) {
	ph := trace.NewPhases(e14Procs)
	_, res, err := runPrograms(machine.Config{
		Mem:    simpleMem(e14Procs, 1024),
		Phases: ph,
	}, e14Programs())
	if err != nil {
		return nil, nil, err
	}
	return ph, res, nil
}

// e14Programs builds one drifting SyncLoop per processor.
func e14Programs() []*isa.Program {
	progs := make([]*isa.Program, e14Procs)
	for p := 0; p < e14Procs; p++ {
		rng := des.NewRNG(uint64(7919*p + 13))
		work := workload.DriftWork(rng, e14Iters, e14Body-e14Region-e14Jitter/2, e14Jitter)
		progs[p] = must(workload.SyncLoop{
			Self: p, Procs: e14Procs, Work: work, Region: e14Region,
		}.Program())
	}
	return progs
}

// TracedShowcase runs the E14 drift workload with a full Gantt/event
// recorder attached and returns the recorder — the input for the Chrome
// trace-event export (`experiments -trace-out`, `trace.WriteChrome`).
func TracedShowcase() (*trace.Recorder, error) {
	rec := trace.NewRecorder(e14Procs)
	_, _, err := runPrograms(machine.Config{
		Mem:      simpleMem(e14Procs, 1024),
		Recorder: rec,
	}, e14Programs())
	if err != nil {
		return nil, err
	}
	return rec, nil
}
