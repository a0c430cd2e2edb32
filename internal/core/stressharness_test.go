package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fuzzybarrier/internal/splitmix"
)

// Stress is a weak-memory stress harness for the runtime barriers: the
// model-checking counterpart internal/check proves the *cluster*
// protocols over every message interleaving; this harness hammers the
// shared-memory barriers (FuzzyBarrier, TreeBarrier, HierBarrier,
// ReduceBarrier) under randomized arrive/wait schedules and
// runtime.Gosched storms, and
// cross-checks what cannot be enumerated: the Go memory model's
// happens-before edges and the BarrierStats accounting.
//
// Detection is layered:
//
//   - plain (non-atomic) per-worker slots are written before Arrive and
//     read after Wait. A Wait that returns before every member arrived
//     reads a slot concurrently with its writer — a value-level stale
//     read counted in the report, and, under `go test -race`, a
//     reported data race even when the values happen to agree.
//   - the reduce harness compares every phase's WaitValue against the
//     serial fold of that phase's contributions (the operator is drawn
//     from {sum, xor, min, max} by seed): a dropped, duplicated or
//     torn combine anywhere in the tree shows up as a value mismatch.
//   - the harness counts every Arrive and Wait it issues and checks
//     the barrier's own counters against them: Arrivals and Waits must
//     match exactly, Syncs must equal the final Epoch, the wait-spin
//     histogram must sum to Waits() (with the exhausted overflow bucket
//     equal to LockWaits+Blocks), and SpinIters must cover every
//     spin-resolved Wait. Lost or double-counted updates on the stats
//     hot path show up here.
//
// The Gosched storms matter: they force goroutine migration and
// preemption at random points inside the arrive/region/wait window, so
// publication races that need an ill-timed context switch actually get
// their ill-timed context switches.
//
// The barrier is a row of the contract table (contract_test.go), looked
// up by name, and a run whose epoch stands still for contractStuck is
// reported as a violation instead of hanging the test binary.

// StressConfig configures one stress run.
type StressConfig struct {
	Barrier string // a contractRows name: "central", "tree-r4", "hier", "reduce", …
	Workers int    // members (>= 1)
	Phases  int    // synchronization episodes per member

	// Seed makes the per-worker schedule randomization reproducible;
	// the interleavings themselves remain up to the scheduler.
	Seed uint64

	// SpinLimit is passed to the barrier; small values steer Waits onto
	// the block path, 0 keeps DefaultSpinLimit.
	SpinLimit int

	TreeRadix int // tree/reduce/hier only; 0 keeps the row's radix

	// HierShards pins the hier barrier's shard count; 0 keeps the
	// row's. Hier only.
	HierShards int
}

// StressReport is the outcome of one stress run.
type StressReport struct {
	Config StressConfig
	Stats  BarrierStats

	Epoch      int64  // barrier epoch at the end of the run
	Arrivals   int64  // Arrive calls the harness issued
	Waits      int64  // Wait calls the harness issued
	ReduceOp   string // reduce only: the seed-chosen operator name
	Violations []string
}

func (r *StressReport) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String renders a one-line summary.
func (r *StressReport) String() string {
	verdict := "ok"
	if len(r.Violations) > 0 {
		verdict = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
	}
	name := r.Config.Barrier
	if r.ReduceOp != "" {
		name += "/" + r.ReduceOp
	}
	return fmt.Sprintf("%s workers=%d phases=%d spin=%d: epoch=%d arrivals=%d waits=%d blocks=%d — %s",
		name, r.Config.Workers, r.Config.Phases, r.Config.SpinLimit,
		r.Epoch, r.Arrivals, r.Waits, r.Stats.Blocks, verdict)
}

// stressRNG is a splitmix64 schedule randomizer, one per worker.
type stressRNG uint64

func (r *stressRNG) next() uint64 {
	z := splitmix64(uint64(*r))
	*r += splitmix.Gamma
	return z
}

// storm yields the processor a random number of times, at a random
// fraction of call sites — the scheduling perturbation that shakes out
// publication races.
func (r *stressRNG) storm() {
	if v := r.next(); v&3 == 0 {
		for i := uint64(0); i < (v>>2)&31; i++ {
			runtime.Gosched()
		}
	}
}

// stressBarrier is a contract-table barrier as the harness and the
// contract properties see it: a SplitBarrier, plus the embedded
// splitCore that holds SpinLimit.
type stressBarrier interface {
	SplitBarrier
	split() *splitCore
}

// Stress runs the harness to completion and returns the report. The
// error covers config problems only; property violations are collected
// in the report so callers (tests, make check) can print them all.
func Stress(cfg StressConfig) (*StressReport, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: stress needs >= 1 worker, got %d", cfg.Workers)
	}
	if cfg.Phases < 1 {
		return nil, fmt.Errorf("core: stress needs >= 1 phase, got %d", cfg.Phases)
	}

	i := slices.IndexFunc(contractRows, func(r contractRow) bool { return r.name == cfg.Barrier })
	if i < 0 {
		return nil, fmt.Errorf("core: unknown stress barrier %q", cfg.Barrier)
	}
	row := contractRows[i]
	if cfg.TreeRadix != 0 {
		row.radix = cfg.TreeRadix
	}
	if cfg.HierShards != 0 {
		row.shards = cfg.HierShards
	}
	// The reduce row's operator is drawn by seed so repeated runs cover
	// the whole family; every op here is associative and commutative
	// (sum wraps mod 2^64, which folds identically in any order).
	ops := []struct {
		name     string
		op       ReduceOp
		identity int64
	}{
		{"sum", OpSum, IdentitySum},
		{"xor", OpXor, IdentityXor},
		{"min", OpMin, IdentityMin},
		{"max", OpMax, IdentityMax},
	}
	pick := ops[mix64(cfg.Seed, 0x0b)%uint64(len(ops))]
	row.op, row.identity = pick.op, pick.identity
	b := row.build(row, cfg.Workers)
	b.split().SpinLimit = cfg.SpinLimit
	red, _ := b.(*ReduceBarrier)
	op, identity, opName := pick.op, pick.identity, pick.name
	if red == nil {
		opName = ""
	}

	rep := &StressReport{Config: cfg, ReduceOp: opName}
	slots := make([]int64, cfg.Workers) // plain slots: the race bait
	var stale, arrivals, waits, reduceBad atomic.Int64

	// Reduce mode: contributions are a pure function of (seed, phase,
	// worker), so the serial fold every WaitValue must equal is computed
	// up front. Only even phases carry data; the odd window-closing phase
	// contributes identities and must reduce to the identity.
	contrib := func(p int64, id int) int64 {
		return int64(mix64(cfg.Seed^0xa5a5a5a5, uint64(p)*1000003+uint64(id)))
	}
	var expectFold []int64
	if red != nil {
		expectFold = make([]int64, cfg.Phases)
		for p := range expectFold {
			acc := identity
			for id := 0; id < cfg.Workers; id++ {
				acc = op(acc, contrib(int64(p), id))
			}
			expectFold[p] = acc
		}
	}

	// wait drives the randomized wait flavor: a few TryWait polls (as a
	// barrier region scheduling more work would), storms, then Wait —
	// WaitValue for the reduce barrier, whose result is returned.
	wait := func(r *stressRNG, ph Phase) int64 {
		for i := uint64(0); i < r.next()&7; i++ {
			b.TryWait(ph)
			r.storm()
		}
		var v int64
		if red != nil {
			v = red.WaitValue(ph)
		} else {
			b.Wait(ph)
		}
		waits.Add(1)
		return v
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := stressRNG(mix64(cfg.Seed, uint64(id)+1))
			for p := int64(0); p < int64(cfg.Phases); p++ {
				r.storm()
				slots[id] = p + 1 // plain write, ordered only by the barrier
				r.storm()
				var ph Phase
				if red != nil {
					ph = red.ArriveValue(contrib(p, id))
				} else {
					ph = b.Arrive()
				}
				arrivals.Add(1)
				if got := wait(&r, ph); red != nil && got != expectFold[p] {
					reduceBad.Add(1)
				}
				// Every member must have written p+1 before any
				// Wait for this phase returned.
				for j := 0; j < cfg.Workers; j++ {
					if slots[j] < p+1 {
						stale.Add(1)
					}
				}
				// Close the read window with a second phase so the reads
				// above are ordered before the next round of writes.
				ph = b.Arrive()
				arrivals.Add(1)
				if got := wait(&r, ph); red != nil && got != identity {
					reduceBad.Add(1)
				}
			}
		}(w)
	}
	if stood, ok := awaitProgress(&wg, b.split()); !ok {
		rep.violatef("the epoch stood at %d for %v: a phase never completed", stood, contractStuck)
		return rep, nil
	}

	rep.Stats = b.StatsSnapshot()
	rep.Epoch = b.Epoch()
	rep.Arrivals = arrivals.Load()
	rep.Waits = waits.Load()
	rep.check(stale.Load(), reduceBad.Load())
	return rep, nil
}

// check cross-validates the barrier's counters against the harness's
// own accounting and the stats invariants, given the slot reads that saw
// a pre-arrival value and the reduce results that differed from the
// serial fold.
func (rep *StressReport) check(stale, reduceBad int64) {
	cfg, s := rep.Config, rep.Stats
	if stale > 0 {
		rep.violatef("%d stale slot reads: some Wait returned before every member arrived", stale)
	}
	if reduceBad > 0 {
		rep.violatef("%d reduce results (op %s) differed from the serial fold", reduceBad, rep.ReduceOp)
	}
	if s.Arrivals != rep.Arrivals {
		rep.violatef("stats.Arrivals = %d, harness issued %d", s.Arrivals, rep.Arrivals)
	}
	if got := s.Waits(); got != rep.Waits {
		rep.violatef("stats.Waits() = %d, harness issued %d", got, rep.Waits)
	}
	if s.Syncs != rep.Epoch {
		rep.violatef("stats.Syncs = %d, epoch = %d", s.Syncs, rep.Epoch)
	}
	var hist int64
	for _, c := range s.WaitSpins {
		hist += c
	}
	if want := s.Waits(); hist != want {
		rep.violatef("wait-spin histogram sums to %d, Waits() = %d", hist, want)
	}
	if exhausted := s.WaitSpins[NumWaitBuckets-1]; exhausted != s.LockWaits+s.Blocks {
		rep.violatef("exhausted bucket = %d, LockWaits+Blocks = %d", exhausted, s.LockWaits+s.Blocks)
	}
	if s.SpinIters < s.SpinWaits {
		rep.violatef("SpinIters = %d < SpinWaits = %d (each spin-resolved Wait needs >= 1 iteration)",
			s.SpinIters, s.SpinWaits)
	}
	// Exactly 2 phases per logical phase, every worker waits on both.
	if want := int64(2 * cfg.Phases); rep.Epoch != want {
		rep.violatef("epoch = %d, want %d", rep.Epoch, want)
	}
}

// mix64 is splitmix64 over a seed/stream pair, for decorrelated
// per-worker schedule streams.
func mix64(seed, stream uint64) uint64 {
	return splitmix64(seed + (stream-1)*splitmix.Gamma)
}
