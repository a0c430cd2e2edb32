package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fuzzybarrier/internal/splitmix"
)

// Stress is a weak-memory stress harness for the runtime barriers: the
// model-checking counterpart internal/check proves the *cluster*
// protocols over every message interleaving; this harness hammers the
// shared-memory barriers (FuzzyBarrier, TreeBarrier, HierBarrier,
// DynamicBarrier, ReduceBarrier, Phaser) under randomized
// arrive/wait/register/leave schedules and runtime.Gosched storms, and
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
// publication races that need an ill-timed context switch (the class of
// bug TestRaceDynamicRegisterDuringCompletion pins) actually get their
// ill-timed context switches.

// StressConfig configures one stress run.
type StressConfig struct {
	Barrier string // "fuzzy", "tree", "hier", "dynamic", "reduce" or "phaser"
	Workers int    // permanent members (>= 1)
	Phases  int    // synchronization episodes per permanent member

	// Seed makes the per-worker schedule randomization reproducible;
	// the interleavings themselves remain up to the scheduler.
	Seed uint64

	// SpinLimit is passed to the barrier; small values steer Waits onto
	// the block path, 0 keeps DefaultSpinLimit.
	SpinLimit int

	TreeRadix int // tree/reduce/hier only; 0 = DefaultTreeRadix

	// HierShards pins the hier barrier's shard count; 0 keeps the
	// GOMAXPROCS-derived default. Hier only.
	HierShards int

	// Churners adds transient members (dynamic and phaser): each
	// repeatedly Registers, rides along for a few phases, and leaves,
	// exercising membership transitions against phase completion.
	// Dynamic churners are ordinary members; phaser churners register as
	// signal-only producers or wait-only consumers (chosen per round by
	// seed). The churn volume is bounded well below Phases so churners
	// always drain while the permanent members still drive phases.
	Churners int
}

// StressReport is the outcome of one stress run.
type StressReport struct {
	Config StressConfig
	Stats  BarrierStats

	Epoch      int64  // barrier epoch at the end of the run
	ChurnJoins int64  // completed register..ride..leave rounds
	Arrivals   int64  // Arrive/ArriveAndLeave calls the harness issued
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
	return fmt.Sprintf("%s workers=%d phases=%d churners=%d: epoch=%d arrivals=%d waits=%d churn-joins=%d — %s",
		name, r.Config.Workers, r.Config.Phases, r.Config.Churners,
		r.Epoch, r.Arrivals, r.Waits, r.ChurnJoins, verdict)
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

// stressBarrier is the slice of SplitBarrier the harness needs; it is
// satisfied by FuzzyBarrier, TreeBarrier, HierBarrier, ReduceBarrier
// and DynamicBarrier alike, and by a phaserHandle.
type stressBarrier interface {
	Arrive() Phase
	TryWait(Phase) bool
	Wait(Phase)
	Await()
	Epoch() int64
	StatsSnapshot() BarrierStats
}

// phaserHandle adapts one Phaser member to stressBarrier.
type phaserHandle struct{ *PhaserMember }

func (h phaserHandle) Await()                      { h.Wait(h.Arrive()) }
func (h phaserHandle) Epoch() int64                { return h.p.Epoch() }
func (h phaserHandle) StatsSnapshot() BarrierStats { return h.p.StatsSnapshot() }

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
	if cfg.Churners < 0 {
		return nil, fmt.Errorf("core: negative churner count %d", cfg.Churners)
	}

	var b stressBarrier
	var dyn *DynamicBarrier
	var red *ReduceBarrier
	var phs *Phaser
	var opName string
	var op ReduceOp
	var identity int64
	radix := cfg.TreeRadix
	if radix == 0 {
		radix = DefaultTreeRadix
	}
	switch cfg.Barrier {
	case "fuzzy":
		fb := NewFuzzyBarrier(cfg.Workers)
		fb.SpinLimit = cfg.SpinLimit
		b = fb
	case "tree":
		tb := NewTreeBarrierRadix(cfg.Workers, radix)
		tb.SpinLimit = cfg.SpinLimit
		b = tb
	case "hier":
		hb := NewHierBarrierConfig(cfg.Workers, HierConfig{Shards: cfg.HierShards, Radix: radix})
		hb.SpinLimit = cfg.SpinLimit
		b = hb
	case "dynamic":
		dyn = NewDynamicBarrier(cfg.Workers)
		dyn.SpinLimit = cfg.SpinLimit
		b = dyn
	case "reduce":
		// The operator is drawn by seed so repeated runs cover the whole
		// family; every op here is associative and commutative (sum wraps
		// mod 2^64, which folds identically in any order).
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
		opName, op, identity = pick.name, pick.op, pick.identity
		rb := NewReduceBarrierRadix(cfg.Workers, radix, op, identity)
		rb.SpinLimit = cfg.SpinLimit
		red = rb
		b = rb
	case "phaser":
		phs = NewPhaser()
		phs.SpinLimit = cfg.SpinLimit
	default:
		return nil, fmt.Errorf("core: unknown stress barrier %q", cfg.Barrier)
	}
	if cfg.Churners > 0 && dyn == nil && phs == nil {
		return nil, fmt.Errorf("core: churners need the dynamic barrier or phaser, got %q", cfg.Barrier)
	}
	// Each churner round rides at most 4 phases and runs churnRounds
	// times; keep the total well under the permanent members' 2*Phases
	// phases so churners always drain against a live barrier.
	churnRounds := cfg.Phases / 8
	if cfg.Churners > 0 && churnRounds < 1 {
		return nil, fmt.Errorf("core: churn needs >= 8 phases, got %d", cfg.Phases)
	}

	rep := &StressReport{Config: cfg, ReduceOp: opName}
	slots := make([]int64, cfg.Workers+cfg.Churners) // plain slots: the race bait
	var stale, arrivals, waits, churnJoins, reduceBad atomic.Int64

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

	// Each permanent member's handle: the barrier itself, or for the
	// phaser one SignalWait member each.
	hs := make([]stressBarrier, cfg.Workers)
	for w := range hs {
		hs[w] = b
		if phs != nil {
			hs[w] = phaserHandle{phs.Register(SignalWait)}
		}
	}
	// wait drives the randomized wait flavor: a few TryWait polls (as a
	// barrier region scheduling more work would), storms, then Wait —
	// WaitValue for the reduce barrier, whose result is returned.
	wait := func(r *stressRNG, h stressBarrier, ph Phase) int64 {
		for i := uint64(0); i < r.next()&7; i++ {
			h.TryWait(ph)
			r.storm()
		}
		var v int64
		if red != nil {
			v = red.WaitValue(ph)
		} else {
			h.Wait(ph)
		}
		waits.Add(1)
		return v
	}
	// Phaser wait-only churners cannot read the plain slots: unlike a
	// dynamic-barrier churner, a wait-only member does not gate the next
	// phase, so the permanents' next writes have no happens-before edge to
	// its reads — a real data race, not just bait. They check the ordering
	// property through these atomic mirrors instead (value-level teeth
	// only; the -race teeth for the consumer path live in
	// TestPhaserPointToPoint, where each slot is written exactly once).
	mirror := make([]atomic.Int64, cfg.Workers)
	finalEpoch := int64(2 * cfg.Phases) // the permanents' last phase boundary

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int, h stressBarrier) {
			defer wg.Done()
			r := stressRNG(mix64(cfg.Seed, uint64(id)+1))
			for p := int64(0); p < int64(cfg.Phases); p++ {
				r.storm()
				slots[id] = p + 1 // plain write, ordered only by the barrier
				mirror[id].Store(p + 1)
				r.storm()
				var ph Phase
				if red != nil {
					ph = red.ArriveValue(contrib(p, id))
				} else {
					ph = h.Arrive()
				}
				arrivals.Add(1)
				if got := wait(&r, h, ph); red != nil && got != expectFold[p] {
					reduceBad.Add(1)
				}
				// Every permanent member must have written p+1 before any
				// Wait for this phase returned.
				for j := 0; j < cfg.Workers; j++ {
					if slots[j] < p+1 {
						stale.Add(1)
					}
				}
				// Close the read window with a second phase so the reads
				// above are ordered before the next round of writes.
				ph = h.Arrive()
				arrivals.Add(1)
				if got := wait(&r, h, ph); red != nil && got != identity {
					reduceBad.Add(1)
				}
			}
			if dyn != nil {
				dyn.ArriveAndLeave()
				arrivals.Add(1)
			}
		}(w, hs[w])
	}
	// checkSlots checks what a churner reads, through load, once its
	// ticket for phase e is released: the permanents write before even
	// phases and read back before odd ones close the window, so at an even
	// e every slot holds e/2+1 (capped at Phases).
	checkSlots := func(e int64, load func(j int) int64) {
		if e%2 != 0 {
			return
		}
		for j := 0; j < cfg.Workers; j++ {
			if load(j) < min(e/2+1, int64(cfg.Phases)) {
				stale.Add(1)
			}
		}
	}
	for c := 0; c < cfg.Churners; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := stressRNG(mix64(cfg.Seed, uint64(cfg.Workers+id)+0x5bd1))
			for round := 0; round < churnRounds; round++ {
				r.storm()
				ride := 1 + r.next()&3
				switch {
				case phs == nil:
					// A dynamic-barrier churner is an ordinary member for a
					// few phases. It reads the slots only on even tickets: on
					// odd ones the permanents' next writes race with it. The
					// ticket is exact because Arrive reads the epoch under
					// the mutex that counts the arrival.
					dyn.Register()
					for p := uint64(0); p < ride; p++ {
						slots[cfg.Workers+id]++ // plain write on the churner's own slot
						ph := dyn.Arrive()
						arrivals.Add(1)
						wait(&r, b, ph)
						checkSlots(ph.epoch, func(j int) int64 { return slots[j] })
					}
					dyn.ArriveAndLeave()
					arrivals.Add(1)
				case r.next()&1 == 0:
					// Signal-only producer: gates phases while registered,
					// may run ahead of the group, never waits.
					m := phs.Register(SignalOnly)
					for p := uint64(0); p < ride; p++ {
						slots[cfg.Workers+id]++ // plain write on the churner's own slot
						m.Arrive()
						arrivals.Add(1)
						r.storm()
					}
					m.Deregister()
				default:
					// Wait-only consumer: observes phase boundaries without
					// gating them, on the mirrors. A ticket at or past the
					// permanents' final phase would only be released by the
					// drain publish, which happens after every churner has
					// exited — waiting on it would deadlock the drain.
					m := phs.Register(WaitOnly)
					for p := uint64(0); p < ride; p++ {
						ph := m.Arrive()
						arrivals.Add(1)
						if ph.epoch < finalEpoch {
							wait(&r, phaserHandle{m}, ph)
							checkSlots(ph.epoch, func(j int) int64 { return mirror[j].Load() })
						}
						r.storm()
					}
					m.Deregister()
				}
				churnJoins.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if phs != nil {
		// Permanents leave last; the final Deregister drains the phaser
		// and publishes the closing episode.
		for _, h := range hs {
			h.(phaserHandle).Deregister()
		}
	}
	rep.Stats = hs[0].StatsSnapshot()
	rep.Epoch = hs[0].Epoch()
	rep.ChurnJoins = churnJoins.Load()
	rep.Arrivals = arrivals.Load()
	rep.Waits = waits.Load()
	rep.check(dyn, phs, stale.Load(), reduceBad.Load())
	return rep, nil
}

// check cross-validates the barrier's counters against the harness's
// own accounting and the stats invariants, given the slot reads that saw
// a pre-arrival value and the reduce results that differed from the
// serial fold.
func (rep *StressReport) check(dyn *DynamicBarrier, phs *Phaser, stale, reduceBad int64) {
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
	switch {
	case dyn != nil:
		if m := dyn.Members(); m != 0 {
			rep.violatef("members after drain = %d, want 0", m)
		}
		if want := int64(2 * cfg.Phases); rep.Epoch < want {
			rep.violatef("epoch = %d, want >= %d", rep.Epoch, want)
		}
	case phs != nil:
		if m := phs.Members(); m != 0 {
			rep.violatef("phaser members after drain = %d, want 0", m)
		}
		// The permanents' signals complete exactly 2*Phases phases (the
		// transient signalers never lag past their deregistration), and
		// the drain publishes exactly one more.
		if want := int64(2*cfg.Phases) + 1; rep.Epoch != want {
			rep.violatef("epoch = %d, want %d", rep.Epoch, want)
		}
	default:
		// Fixed membership: exactly 2 phases per logical phase, every
		// worker waits on both.
		if want := int64(2 * cfg.Phases); rep.Epoch != want {
			rep.violatef("epoch = %d, want %d", rep.Epoch, want)
		}
	}
}

// mix64 is splitmix64 over a seed/stream pair, for decorrelated
// per-worker schedule streams.
func mix64(seed, stream uint64) uint64 {
	return splitmix64(seed + (stream-1)*splitmix.Gamma)
}
