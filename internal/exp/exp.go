// Package exp regenerates the paper's evaluation: one function per table
// or figure (see DESIGN.md's per-experiment index, E1..E21). Each
// experiment returns a trace.Table whose rows are the series the paper
// reports; EXPERIMENTS.md records the expected shapes next to the paper's
// numbers.
//
// Simulator-based experiments are fully deterministic. Runtime
// (goroutine) measurements appear only in bench_test.go, because
// wall-clock numbers on a time-shared scheduler are not table-stable —
// the repro note for this paper calls out exactly that hazard.
package exp

import (
	"fmt"
	"sync/atomic"

	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/sweep"
	"fuzzybarrier/internal/trace"
)

// parallelism is the worker count for sweep cells; <= 0 means
// GOMAXPROCS. It is process-global because experiments are invoked
// through nullary Run functions (one per table); the CLI sets it once
// from -parallel before running anything.
var parallelism atomic.Int64

// SetParallelism sets the number of workers used to execute independent
// sweep cells inside experiments; n <= 0 restores the default
// (GOMAXPROCS). Cell aggregation is index-ordered, so every table is
// byte-identical no matter the setting — see internal/sweep.
func SetParallelism(n int) { parallelism.Store(int64(n)) }

// Parallelism returns the effective sweep worker count.
func Parallelism() int { return sweep.Workers(int(parallelism.Load())) }

// progressHook, when set, observes every sweep cell completion
// (sweep.RunProgress contract: serialized calls, counts 1..n). Like
// parallelism it is process-global, set once by the CLI before any
// experiment runs.
var progressHook atomic.Value // of progressFn

type progressFn func(done, total int)

// SetProgress installs a hook called after each sweep cell completes,
// with the completed and total cell counts of the current experiment's
// sweep; nil disables it. Long sweeps (E15/E16/E21) are otherwise
// silent for minutes.
func SetProgress(hook func(done, total int)) { progressHook.Store(progressFn(hook)) }

// sweepRun executes n independent experiment cells on the configured
// worker pool, returning results in index order and reporting cell
// completions to the installed progress hook.
func sweepRun[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	hook, _ := progressHook.Load().(progressFn) // nil when none is installed
	return sweep.RunProgress(Parallelism(), n, hook, fn)
}

// Experiment identifies one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*trace.Table, error)
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Sync cost vs. barrier-region size (Section 8)", E1SyncCostVsRegionSize},
		{"E2", "Software vs. hardware barrier scaling and hot spots (Section 1)", E2BarrierScaling},
		{"E3", "Non-barrier region shrinking by reordering (Figure 4)", E3RegionReordering},
		{"E4", "Loop distribution enlarges barrier regions (Figure 5)", E4LoopDistribution},
		{"E5", "If-statements in barrier regions (Figure 7)", E5VariableLengthStreams},
		{"E6", "Lexically forward dependences under drift (Figures 9-10)", E6LexicallyForward},
		{"E7", "Static scheduling with rotating remainder (Figure 11)", E7StaticScheduling},
		{"E8", "Run-time scheduling of loop iterations (Figure 12)", E8RuntimeScheduling},
		{"E9", "Invalid branch between barriers (Figure 2)", E9InvalidBranch},
		{"E10", "Stall probability vs. region length (Section 2)", E10StallProbability},
		{"E11", "Multiple barriers and the N-1 bound (Section 5, Figure 6)", E11MultipleBarriers},
		{"E12", "Interrupts in barrier regions (Section 9 future work, extension)", E12InterruptTolerance},
		{"E13", "Procedure calls from barrier regions (Section 9 future work, extension)", E13ProcedureCalls},
		{"E14", "Per-phase stall attribution (observability extension)", E14PhaseAttribution},
		{"E15", "Cluster sync cost vs. region size over a lossy network (extension)", E15ClusterSync},
		{"E16", "Cluster barrier scaling to 4096 nodes (extension)", E16ClusterScaling},
		{"E17", "Exhaustive model checking + exact stall oracle (verification extension)", E17ModelCheckAndOracle},
		{"E18", "Fleet epoch aggregation: reduce-barrier allreduce vs central gather (extension)", E18FleetAggregation},
		{"E19", "barrierd epoch latency vs offered load over lossy links (extension)", E19ServiceLatency},
		{"E20", "Hierarchical vs flat split barriers: hot-spot traffic under routing (extension)", E20HierScaling},
		{"E21", "Parallel-engine shard equivalence (engine extension)", E21ParallelEquivalence},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// simpleMem is a fast conflict-free memory configuration.
func simpleMem(procs, words int) mem.Config {
	return mem.Config{
		Words: words, Procs: procs,
		HitLatency: 1, MissLatency: 1, Modules: procs, ModuleBusy: 1,
	}
}

// runPrograms loads one program per processor and runs to completion.
func runPrograms(cfg machine.Config, progs []*isa.Program) (*machine.Machine, *machine.Result, error) {
	cfg.Procs = len(progs)
	m := machine.New(cfg)
	for p, prog := range progs {
		if err := m.Load(p, prog); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return m, res, err
	}
	return m, res, nil
}

// perIter divides a total by an iteration count, guarding zero.
func perIter(total int64, iters int) float64 {
	if iters == 0 {
		return 0
	}
	return float64(total) / float64(iters)
}

// must panics on error — used only for statically-correct workload
// construction inside experiments.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("exp: workload construction failed: %v", err))
	}
	return v
}
