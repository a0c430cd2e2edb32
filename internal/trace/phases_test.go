package trace

import (
	"strings"
	"testing"
)

func TestPhasesAttribution(t *testing.T) {
	ph := NewPhases(2)
	// Phase 0: P0 executes 3 cycles and stalls 2; P1 executes 5.
	for i := 0; i < 3; i++ {
		ph.Account(0, KindExec)
	}
	ph.Account(0, KindStall)
	ph.Account(0, KindStall)
	for i := 0; i < 5; i++ {
		ph.Account(1, KindExec)
	}
	ph.Advance(0)
	ph.Advance(1)
	// Phase 1: P0 one memory wait; P1 one barrier instruction.
	ph.Account(0, KindMemory)
	ph.Account(1, KindBarrier)

	if got := ph.NumPhases(); got != 2 {
		t.Fatalf("NumPhases = %d, want 2", got)
	}
	if got := ph.PhaseCycles(0, KindStall); got != 2 {
		t.Errorf("phase 0 stalls = %d, want 2", got)
	}
	if got := ph.PhaseCycles(0, KindExec); got != 8 {
		t.Errorf("phase 0 exec = %d, want 8", got)
	}
	if got := ph.PhaseCycles(1, KindMemory); got != 1 {
		t.Errorf("phase 1 memory = %d, want 1", got)
	}
	if got := ph.KindTotal(KindStall); got != 2 {
		t.Errorf("total stalls = %d, want 2", got)
	}
	if got := ph.KindTotal(KindExec); got != 8 {
		t.Errorf("total exec = %d, want 8", got)
	}
	pc := ph.ProcCounts(0, 0)
	if pc[KindExec.Index()] != 3 || pc[KindStall.Index()] != 2 {
		t.Errorf("P0 phase 0 counts = %v", pc)
	}
}

// TestPhasesPerPhaseSumsMatchTotals is the structural invariant the
// experiment harness relies on: summing any kind across phases equals
// the aggregate for that kind.
func TestPhasesPerPhaseSumsMatchTotals(t *testing.T) {
	ph := NewPhases(3)
	kinds := []Kind{KindExec, KindStall, KindMemory, KindWork, KindBarrier}
	// A deterministic scatter of activity across procs and phases.
	for step := 0; step < 200; step++ {
		p := step % 3
		ph.Account(p, kinds[(step*7)%len(kinds)])
		if step%11 == 0 {
			ph.Advance(p)
		}
	}
	for _, k := range kinds {
		var sum int64
		for phase := 0; phase < ph.NumPhases(); phase++ {
			sum += ph.PhaseCycles(phase, k)
		}
		if total := ph.KindTotal(k); sum != total {
			t.Errorf("kind %v: per-phase sum %d != total %d", k, sum, total)
		}
	}
	// The grand total must be every accounted cycle.
	var grand int64
	for _, k := range kinds {
		grand += ph.KindTotal(k)
	}
	if grand != 200 {
		t.Errorf("grand total = %d, want 200", grand)
	}
}

func TestPhasesNilSafe(t *testing.T) {
	var ph *Phases
	ph.Account(0, KindExec) // must not panic
	ph.Advance(0)
	if ph.NumPhases() != 0 {
		t.Error("nil Phases reports phases")
	}
	if ph.Counts(0) != nil || ph.ProcCounts(0, 0) != nil {
		t.Error("nil Phases returns counts")
	}
	if ph.KindTotal(KindExec) != 0 || ph.PhaseCycles(0, KindExec) != 0 {
		t.Error("nil Phases returns cycles")
	}
}

func TestPhasesIgnoresBadInput(t *testing.T) {
	ph := NewPhases(1)
	ph.Account(5, KindExec)  // proc out of range
	ph.Account(-1, KindExec) // negative proc
	ph.Account(0, Kind('?')) // unknown kind
	ph.Advance(9)            // out of range
	if ph.NumPhases() != 0 {
		t.Errorf("NumPhases = %d, want 0 after only dropped input", ph.NumPhases())
	}
	if ph.ProcCounts(0, -1) != nil {
		t.Error("negative phase should return nil")
	}
}

func TestPhasesTable(t *testing.T) {
	ph := NewPhases(1)
	ph.Account(0, KindExec)
	ph.Account(0, KindStall)
	ph.Advance(0)
	ph.Account(0, KindExec)
	tbl := ph.Table("phase attribution")
	out := tbl.String()
	for _, want := range []string{"phase", "exec", "stall", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d, want 2:\n%s", len(tbl.Rows), out)
	}
	// Kinds with no cycles anywhere must not appear as columns.
	if strings.Contains(out, "interrupt") {
		t.Errorf("unused kind rendered:\n%s", out)
	}
}

// TestDisabledHooksAllocationFree enforces the Enabled() discipline: the
// per-cycle hooks must be allocation-free when observability is off
// (nil receivers), so simulations without tracing pay nothing.
func TestDisabledHooksAllocationFree(t *testing.T) {
	var rec *Recorder
	var ph *Phases
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Mark(1, 0, KindExec)
		rec.Eventf(1, 0, "dropped")
		ph.Account(0, KindExec)
		ph.Advance(0)
	})
	if allocs != 0 {
		t.Errorf("disabled hooks allocate %.1f/op, want 0", allocs)
	}
}
