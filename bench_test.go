// Benchmarks regenerating the paper's evaluation, one benchmark per table
// or figure (DESIGN.md index E1..E18), plus the ablations DESIGN.md calls
// out. Simulator benchmarks report deterministic counters (cycles, stall
// cycles) via b.ReportMetric; goroutine benchmarks report wall time — on
// a time-shared scheduler treat those as orderings, not absolutes.
//
//	go test -bench=. -benchmem
package fuzzybarrier_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzybarrier/internal/baseline"
	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/compiler"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/exp"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/workload"
)

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

func simMem(procs, words int) mem.Config {
	return mem.Config{
		Words: words, Procs: procs,
		HitLatency: 1, MissLatency: 1, Modules: procs, ModuleBusy: 1,
	}
}

// runSim loads one program per processor, runs, and reports cycle/stall
// metrics normalized per b.N iteration.
func runSim(b *testing.B, cfg machine.Config, progs []*isa.Program) *machine.Result {
	b.Helper()
	cfg.Procs = len(progs)
	m := machine.New(cfg)
	for p, prog := range progs {
		if err := m.Load(p, prog); err != nil {
			b.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// spinWork burns deterministic CPU without shared-memory traffic.
func spinWork(units int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < units*8; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	return x
}

var benchSink uint64

// ---------------------------------------------------------------------
// E1 — Section 8: sync cost vs. barrier-region size
// ---------------------------------------------------------------------

// BenchmarkE1SyncCostVsRegionSize is the goroutine (Encore-analog) form
// of the headline experiment: 4 workers, fixed per-iteration body, the
// barrier region growing from 0% to 50% of the body. ns/op falls as the
// region grows because blocked waits (context switches — the cost the
// paper attributes the 10,000 µs to) disappear.
func BenchmarkE1SyncCostVsRegionSize(b *testing.B) {
	const workers = 4
	const body = 64 // spin units per iteration
	for _, pct := range []int{0, 10, 25, 50} {
		region := body * pct / 100
		work := body - region
		b.Run(fmt.Sprintf("region=%d%%", pct), func(b *testing.B) {
			bar := core.NewFuzzyBarrier(workers)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					var acc uint64
					for i := 0; i < b.N; i++ {
						acc += spinWork(work + id%2) // slight skew
						ph := bar.Arrive()
						acc += spinWork(region)
						bar.Wait(ph)
					}
					benchSink += acc
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			_, _, _, _, blocks, _ := bar.Stats()
			b.ReportMetric(float64(blocks)/float64(b.N), "blocked/op")
		})
	}
}

// BenchmarkE1Simulated is the deterministic form: stall cycles per
// iteration on the 4-processor simulator with random drift.
func BenchmarkE1Simulated(b *testing.B) {
	const procs, iters, body, jitter = 4, 100, 200, 80
	for _, region := range []int64{0, 40, 100} {
		b.Run(fmt.Sprintf("region=%d", region), func(b *testing.B) {
			var stalls, cycles int64
			for i := 0; i < b.N; i++ {
				progs := make([]*isa.Program, procs)
				for p := 0; p < procs; p++ {
					rng := des.NewRNG(uint64(7919*p + 13))
					prog, err := workload.SyncLoop{
						Self: p, Procs: procs,
						Work:   workload.DriftWork(rng, iters, body-region-jitter/2, jitter),
						Region: region,
					}.Program()
					if err != nil {
						b.Fatal(err)
					}
					progs[p] = prog
				}
				res := runSim(b, machine.Config{Mem: simMem(procs, 256)}, progs)
				stalls += res.TotalStalls()
				cycles += res.Cycles
			}
			b.ReportMetric(float64(stalls)/float64(b.N*iters*procs), "stall-cycles/iter")
			b.ReportMetric(float64(cycles)/float64(b.N*iters), "cycles/iter")
		})
	}
}

// ---------------------------------------------------------------------
// E2 — Section 1: barrier implementations and scaling
// ---------------------------------------------------------------------

// splitNames are the split barriers baseline.NewSplit builds.
var splitNames = []string{"fuzzy", "fuzzy-tree", "fuzzy-reduce", "hier"}

// splitAwait is a split barrier used as a point barrier: Await is
// Arrive then Wait.
func splitAwait(name string) func(n int) func(id int) {
	return func(n int) func(id int) {
		bar, err := baseline.NewSplit(name, n)
		if err != nil {
			panic(err)
		}
		return func(int) { bar.Await() }
	}
}

// e2PointBarriers are BenchmarkE2Barriers' rows in name order: the
// conventional software barriers and each split barrier as a point
// barrier. Each entry returns participant id's Await.
var e2PointBarriers = []struct {
	name string
	mk   func(n int) func(id int)
}{
	{"central", func(n int) func(int) { return baseline.NewCentral(n).Await }},
	{"dissemination", func(n int) func(int) { return baseline.NewDissemination(n).Await }},
	{"fuzzy", splitAwait("fuzzy")},
	{"fuzzy-reduce", splitAwait("fuzzy-reduce")},
	{"fuzzy-tree", splitAwait("fuzzy-tree")},
	{"hier", splitAwait("hier")},
	{"sense-reversing", func(n int) func(int) { return baseline.NewSenseReversing(n).Await }},
	{"tournament", func(n int) func(int) { return baseline.NewTournament(n).Await }},
	{"tree", func(n int) func(int) { return baseline.NewTree(n, 4).Await }},
}

// BenchmarkE2Barriers measures the runtime baselines (ns/episode) across
// implementations and participant counts — the log-vs-linear software
// spectrum the paper cites, plus the split barriers used as point
// barriers.
func BenchmarkE2Barriers(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		for _, pb := range e2PointBarriers {
			b.Run(fmt.Sprintf("%s/p%d", pb.name, procs), func(b *testing.B) {
				await := pb.mk(procs)
				var wg sync.WaitGroup
				b.ResetTimer()
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							await(id)
						}
					}(p)
				}
				wg.Wait()
			})
		}
	}
}

// splitScalingOversubscribed reports whether a worker count is too far
// past the host's parallelism for wall-clock numbers to mean anything:
// beyond 64 goroutines per P the run measures the scheduler's run-queue
// churn, not the barrier. The deterministic hotspot-ops/phase metric is
// immune, but it ships in the same subtest, so the whole count is
// skipped with a logged reason rather than archiving noise.
func splitScalingOversubscribed(workers int) bool {
	return workers > 64*runtime.GOMAXPROCS(0)
}

// BenchmarkE2SplitScaling measures the arrive-side cost of the
// split-phase implementations — central counter, combining tree,
// allreduce, and the two-level sharded hierarchy — as the participant
// count grows past anything the paper's Multimax could host (8..16384
// goroutines) and the barrier region varies. Metrics:
//
//   - arrive-ns/op: mean wall time inside Arrive (scheduler-noisy on a
//     time-shared host; read orderings, not absolutes);
//   - ns/episode: wall time per completed synchronization episode;
//   - hotspot-ops/phase: atomic operations landing on the hottest single
//     counter word per episode, which is the deterministic, core-count-
//     independent measure of the Section 1 hot spot. Central is always
//     n+1; the tree stays near its radix plus collision-probe write
//     pairs, and the hierarchy bounds even the probe traffic with
//     read-only probing — the gap is measurable directly;
//   - maxprocs: GOMAXPROCS at run time, so archived numbers carry the
//     parallelism they were measured under.
//
// Worker counts beyond 64×GOMAXPROCS are skipped with a logged reason:
// at that oversubscription the wall-clock numbers measure scheduler
// churn, not the barrier.
func BenchmarkE2SplitScaling(b *testing.B) {
	for _, workers := range []int{8, 64, 256, 1024, 4096, 8192, 16384} {
		for _, region := range []int{0, 16} {
			for _, name := range splitNames {
				b.Run(fmt.Sprintf("%s/p%d/region=%d", name, workers, region), func(b *testing.B) {
					if splitScalingOversubscribed(workers) {
						b.Skipf("skipping %d workers at GOMAXPROCS=%d: > 64x oversubscribed, wall-clock numbers would be scheduler noise",
							workers, runtime.GOMAXPROCS(0))
					}
					bar, err := baseline.NewSplit(name, workers)
					if err != nil {
						b.Fatal(err)
					}
					var arriveNS, sink atomic.Int64
					var wg sync.WaitGroup
					b.ResetTimer()
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var ns int64
							var acc uint64
							for i := 0; i < b.N; i++ {
								t0 := time.Now()
								ph := bar.Arrive()
								ns += time.Since(t0).Nanoseconds()
								acc += spinWork(region)
								bar.Wait(ph)
							}
							arriveNS.Add(ns)
							sink.Add(int64(acc))
						}()
					}
					wg.Wait()
					b.StopTimer()
					benchSink += uint64(sink.Load())
					b.ReportMetric(float64(arriveNS.Load())/float64(int64(b.N)*int64(workers)), "arrive-ns/op")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/episode")
					b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
					if prof, ok := bar.(core.ArriveProfiler); ok {
						if ops, phases := prof.HotspotOps(); phases > 0 {
							b.ReportMetric(float64(ops)/float64(phases), "hotspot-ops/phase")
						}
					}
				})
			}
		}
	}
}

// BenchmarkE2Simulated reports the deterministic software-vs-hardware
// cost: cycles per episode for the counter barrier written in simulator
// instructions vs. the fuzzy-barrier hardware.
func BenchmarkE2Simulated(b *testing.B) {
	const episodes = 50
	for _, procs := range []int{4, 16} {
		b.Run(fmt.Sprintf("central-sw/p%d", procs), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				progs := make([]*isa.Program, procs)
				for p := 0; p < procs; p++ {
					prog, err := workload.CentralBarrierLoop{
						Self: p, Procs: procs, Work: workload.BarrierOnlyWork(episodes),
					}.Program()
					if err != nil {
						b.Fatal(err)
					}
					progs[p] = prog
				}
				cfg := simMem(procs, 256)
				cfg.Modules = 1
				cfg.ModuleBusy = 2
				res := runSim(b, machine.Config{Mem: cfg}, progs)
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N*episodes), "cycles/episode")
		})
		b.Run(fmt.Sprintf("fuzzy-hw/p%d", procs), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				progs := make([]*isa.Program, procs)
				for p := 0; p < procs; p++ {
					prog, err := workload.SyncLoop{
						Self: p, Procs: procs,
						Work: workload.UniformWork(episodes, 0),
					}.Program()
					if err != nil {
						b.Fatal(err)
					}
					progs[p] = prog
				}
				res := runSim(b, machine.Config{Mem: simMem(procs, 256)}, progs)
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N*episodes), "cycles/episode")
		})
	}
}

// ---------------------------------------------------------------------
// E3 — Figure 4: region construction and reordering
// ---------------------------------------------------------------------

// BenchmarkE3RegionReordering compiles the Poisson solver under each
// region-construction mode, reporting the resulting non-barrier region
// size (the Figure 4 quantity) and the compile cost.
func BenchmarkE3RegionReordering(b *testing.B) {
	prog := lang.MustParse(exp.PoissonSource)
	for _, mode := range []compiler.RegionMode{compiler.RegionSpan, compiler.RegionReorder} {
		b.Run(mode.String(), func(b *testing.B) {
			var nb int
			for i := 0; i < b.N; i++ {
				c, err := compiler.Compile(prog, compiler.Options{Procs: 4, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				nb = c.Tasks[0].Stats.NonBarrier
			}
			b.ReportMetric(float64(nb), "non-barrier-TAC")
		})
	}
}

// ---------------------------------------------------------------------
// E4..E11 — remaining tables: each benchmark regenerates its experiment
// and reports the headline metric deterministically.
// ---------------------------------------------------------------------

// benchExperiment runs a full experiment table per iteration; the tables
// themselves validate their expected shapes internally.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE4LoopDistribution regenerates the Figure 5 table.
func BenchmarkE4LoopDistribution(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5VariableLengthStreams regenerates the Figure 7 table.
func BenchmarkE5VariableLengthStreams(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6LexicallyForward regenerates the Figures 9-10 table.
func BenchmarkE6LexicallyForward(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7StaticScheduling regenerates the Figure 11 table.
func BenchmarkE7StaticScheduling(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8RuntimeScheduling regenerates the Figure 12 table.
func BenchmarkE8RuntimeScheduling(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9InvalidBranch regenerates the Figure 2 demonstration
// (validator + deadlock detection).
func BenchmarkE9InvalidBranch(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10StallProbability regenerates the Section 2 stall-vs-region
// sweep.
func BenchmarkE10StallProbability(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11MultipleBarriers regenerates the Section 5 N-1 bound table.
func BenchmarkE11MultipleBarriers(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12InterruptTolerance regenerates the Section 9 future-work
// extension table (interrupts in barrier regions).
func BenchmarkE12InterruptTolerance(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13ProcedureCalls regenerates the Section 9 future-work
// extension table (procedure calls from barrier regions).
func BenchmarkE13ProcedureCalls(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14PhaseAttribution regenerates the per-phase stall
// attribution table (observability extension).
func BenchmarkE14PhaseAttribution(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15ClusterSync regenerates the message-passing cluster table
// (sync cost vs. region size over a lossy network).
func BenchmarkE15ClusterSync(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkClusterSim measures raw discrete-event throughput of one
// lossy dissemination-barrier run (the heaviest cluster protocol by
// message count), reporting deterministic stall ticks per epoch.
func BenchmarkClusterSim(b *testing.B) {
	var stall float64
	for i := 0; i < b.N; i++ {
		sim, err := cluster.New(cluster.Config{
			Protocol: "dissemination", Nodes: 8, Epochs: 50,
			Work: 300, WorkJitter: 100, Region: 120,
			Net:  cluster.NetConfig{Latency: 20, Jitter: 15, DropRate: 0.05, DupRate: 0.02},
			Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		stall = res.StallPerEpoch()
	}
	b.ReportMetric(stall, "stall-ticks/epoch")
}

// BenchmarkE16ClusterScaling regenerates the 16..4096-node scaling table.
func BenchmarkE16ClusterScaling(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkClusterEngine times the cluster event engine (pooled arena,
// calendar wheel, 4-ary overflow heap) on one lossy 256-node run. Run
// with -benchmem: the engine's steady state allocates nothing, so
// allocs/op shows only per-run pool warm-up.
func BenchmarkClusterEngine(b *testing.B) {
	cfg := cluster.Config{
		Protocol: "dissemination", Nodes: 256, Epochs: 20,
		Work: 120, WorkJitter: 40, Region: 30,
		Net:  cluster.NetConfig{Latency: 12, Jitter: 25, DropRate: 0.2, DupRate: 0.08},
		Seed: 1234,
	}
	b.ReportAllocs()
	var ticks int64
	for i := 0; i < b.N; i++ {
		sim, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		ticks = res.Ticks
	}
	b.ReportMetric(float64(ticks), "sim-ticks")
}

// BenchmarkE18FleetAggregation regenerates the fleet epoch aggregation
// table (reduce-barrier allreduce vs central gather).
func BenchmarkE18FleetAggregation(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE20HierScaling regenerates the hierarchical-vs-flat hot-spot
// table (central vs tree vs hier under spread and clustered routing).
func BenchmarkE20HierScaling(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkReduceAllreduce is the goroutine (wall-clock) form of E18's
// comparison: workers agree on a per-phase max either through the
// combining ReduceBarrier (AwaitValue — the result rides the epoch
// publication) or through a central CAS word paced by a plain
// FuzzyBarrier. ns/op is one full allreduce episode per worker; on a
// time-shared host read the two as an ordering, not absolutes — the
// deterministic hotspot numbers are in E18 itself. The central variant
// skips the per-phase accumulator reset (the fold is monotone across
// phases), so its cost here is a floor.
func BenchmarkReduceAllreduce(b *testing.B) {
	for _, workers := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("reduce-tree/p%d", workers), func(b *testing.B) {
			bar := core.NewReduceBarrier(workers, core.OpMax, core.IdentityMax)
			var sink atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int64) {
					defer wg.Done()
					var acc int64
					for i := 0; i < b.N; i++ {
						acc ^= bar.AwaitValue(id + int64(i))
					}
					sink.Add(acc)
				}(int64(w))
			}
			wg.Wait()
			b.StopTimer()
			benchSink += uint64(sink.Load())
		})
		b.Run(fmt.Sprintf("central-gather/p%d", workers), func(b *testing.B) {
			bar := core.NewFuzzyBarrier(workers)
			var word atomic.Int64
			word.Store(core.IdentityMax)
			var sink atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int64) {
					defer wg.Done()
					var acc int64
					for i := 0; i < b.N; i++ {
						v := id + int64(i)
						for {
							old := word.Load()
							if v <= old || word.CompareAndSwap(old, v) {
								break
							}
						}
						ph := bar.Arrive()
						bar.Wait(ph)
						acc ^= word.Load()
					}
					sink.Add(acc)
				}(int64(w))
			}
			wg.Wait()
			b.StopTimer()
			benchSink += uint64(sink.Load())
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

// BenchmarkAblationRegionEncoding compares the two Section 6 region
// encodings — per-instruction bit vs. BENTER/BEXIT markers — on the same
// synchronizing loop. Markers cost two extra instructions per region.
func BenchmarkAblationRegionEncoding(b *testing.B) {
	const procs, iters = 2, 200
	build := func(marker bool, self int) *isa.Program {
		var bb *isa.Builder
		if marker {
			bb = isa.NewMarkerBuilder("m")
		} else {
			bb = isa.NewBuilder("b")
		}
		bb.BarrierInit(1, uint64(core.AllExcept(procs, self))).Ldi(1, 0).Ldi(2, iters)
		bb.Label("loop")
		bb.InBarrier().Addi(1, 1, 1)
		bb.InNonBarrier().Work(10).CondBr(isa.BLT, 1, 2, "loop").Halt()
		return bb.MustBuild()
	}
	for _, marker := range []bool{false, true} {
		name := "bit"
		if marker {
			name = "marker"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res := runSim(b, machine.Config{Mem: simMem(procs, 128)},
					[]*isa.Program{build(marker, 0), build(marker, 1)})
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N*iters), "cycles/iter")
		})
	}
}

// BenchmarkAblationPipelineDepth measures the effect of the pipeline
// ready-line delay (Section 2's exit-vs-enter distinction): the line
// rises depth−1 cycles after region entry, so synchronization fires that
// much later and a drifted processor stalls correspondingly longer. With
// symmetric work the delay cancels out; with drift it surfaces as extra
// stall cycles.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	const procs, iters = 4, 200
	for _, depth := range []int64{1, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var cycles, stalls int64
			for i := 0; i < b.N; i++ {
				progs := make([]*isa.Program, procs)
				for p := 0; p < procs; p++ {
					prog, err := workload.SyncLoop{
						Self: p, Procs: procs,
						Work:   workload.AlternatingWork(iters, 5, 25, p%2),
						Region: 10,
					}.Program()
					if err != nil {
						b.Fatal(err)
					}
					progs[p] = prog
				}
				res := runSim(b, machine.Config{Mem: simMem(procs, 128), PipelineDepth: depth}, progs)
				cycles += res.Cycles
				stalls += res.TotalStalls()
			}
			b.ReportMetric(float64(cycles)/float64(b.N*iters), "cycles/iter")
			b.ReportMetric(float64(stalls)/float64(b.N*iters*procs), "stall-cycles/iter")
		})
	}
}

// BenchmarkAblationIssueWidth measures the VLIW issue mode of Section 9
// on the compiled Poisson solver: wider issue shortens the address
// arithmetic in the barrier region without changing synchronization
// behaviour.
func BenchmarkAblationIssueWidth(b *testing.B) {
	prog := lang.MustParse(exp.PoissonSource)
	c, err := compiler.Compile(prog, compiler.Options{Procs: 4, Mode: compiler.RegionReorder})
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := machine.Config{
					Procs:      4,
					Mem:        simMem(4, int(c.Layout.Words)+64),
					IssueWidth: width,
				}
				m := machine.New(cfg)
				for _, task := range c.Tasks {
					if err := m.Load(task.Proc, task.Machine); err != nil {
						b.Fatal(err)
					}
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles")
		})
	}
}

// BenchmarkFuzzyBarrierArriveWait measures the raw split-phase fast path:
// a single goroutine pair ping-ponging through Arrive/Wait.
func BenchmarkFuzzyBarrierArriveWait(b *testing.B) {
	bar := core.NewFuzzyBarrier(2)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				bar.Wait(bar.Arrive())
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDynamicBarrier measures the dynamic-membership barrier
// (register / arrive-and-leave) against the fixed-membership fast path.
func BenchmarkDynamicBarrier(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("p%d", workers), func(b *testing.B) {
			bar := core.NewDynamicBarrier(workers)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						bar.Wait(bar.Arrive())
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkSimulatorThroughput reports simulated instructions per second
// — the simulator's own speed, which bounds experiment turnaround.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := workload.SyncLoop{
		Self: 0, Procs: 1, Work: workload.UniformWork(1000, 5), Region: 2,
	}.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		res := runSim(b, machine.Config{Mem: simMem(1, 128)}, []*isa.Program{prog})
		instrs += res.Procs[0].Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// ---------------------------------------------------------------------
// Fast-forward engine and parallel sweeps (perf additions)
// ---------------------------------------------------------------------

// BenchmarkMachineFastForward measures the cycle fast-forward engine on
// a stall-heavy drift workload: "naive" steps every cycle, "fast" jumps
// idle spans. Both produce bit-identical results (see
// internal/machine/ff_test.go); the ratio of the two ns/op numbers is
// the speedup the engine buys.
func BenchmarkMachineFastForward(b *testing.B) {
	const procs, iters = 8, 200
	progs, err := workload.StallHeavyPrograms(procs, iters, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"naive", true}, {"fast", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res := runSim(b, machine.Config{
					Mem:                simMem(procs, 256),
					DisableFastForward: mode.disable,
				}, progs)
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSweepParallel measures the sweep worker pool on the full E15
// cluster sweep (54 independent (protocol, network, region) cells):
// workers=1 is the pre-pool serial baseline, workers=4 the parallel
// run. Tables are byte-identical either way (exp.TestParallelDeterminism).
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			exp.SetParallelism(workers)
			defer exp.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				if _, err := exp.E15ClusterSync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
