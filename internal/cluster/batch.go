package cluster

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the multi-seed batch executor: RunBatch replays one
// configuration across many seeds, the second parallel axis next to
// Config.Shards (which parallelizes a single run). Seeds are grouped
// into lockstep lane groups — structure-of-arrays batches of
// independent Sims stepped window by window through shared simulated
// time — and the groups are spread over a worker pool.
//
// Why lockstep instead of one seed after another: every lane of a group
// replays the same configuration, so at any window the lanes sit in the
// same protocol phase, dispatch the same event kinds, and walk
// same-shaped wheels and outbox rings. Interleaving them in small time
// windows keeps those structurally identical accesses adjacent — the
// branch predictor and the cache amortize one config's schedule over K
// replays — while the flat per-lane arrays (execs, node counts,
// remaining-lane bookkeeping) keep the batch loop itself free of
// per-seed allocation. Group size is memory-aware: lanes per group
// shrink as the per-lane footprint grows, so a group's combined working
// set stays cache-resident instead of thrashing.
//
// Equivalence: a lane is an ordinary serial-engine Sim driven by
// the same bounded stepFast the solo Run loop uses, stopped at the
// same completion event and subject to the same per-event budget
// checks. RunBatch therefore returns per-seed Results (and stuck
// errors) identical to len(seeds) solo Runs — TestBatchEquivalence pins
// DeepEqual on both.

// batchGroupBytes is the target combined working set of one lockstep
// lane group; batchNodeBytes is a rough per-node footprint estimate
// (node + outbox ring + wheel/arena share).
const (
	batchGroupBytes = 32 << 20
	batchNodeBytes  = 2048
	batchMaxLanes   = 64
)

// batchLanes is the memory-aware lockstep group size for a cluster of
// the given node count.
func batchLanes(nodes int) int {
	g := batchGroupBytes / (nodes*batchNodeBytes + 1)
	if g < 1 {
		return 1
	}
	if g > batchMaxLanes {
		return batchMaxLanes
	}
	return g
}

// RunBatch replays cfg once per seed (cfg.Seed is overwritten) and
// returns per-seed Results and errors, indexed like seeds. Up to
// workers groups run concurrently (workers <= 0 selects GOMAXPROCS);
// results are deterministic and identical to solo Runs at any worker
// count. progress, when non-nil, is called after each seed completes
// with the completed and total counts (serialized; never concurrently).
//
// Configurations the lockstep fast path cannot share — a trace
// Recorder or intra-run sharding — fall back to solo Runs on the same
// worker pool. A shared cfg.Recorder is only safe
// at workers == 1.
func RunBatch(cfg Config, seeds []uint64, workers int, progress func(done, total int)) ([]*Result, []error) {
	total := len(seeds)
	results := make([]*Result, total)
	errs := make([]error, total)
	if total == 0 {
		return results, errs
	}
	var mu sync.Mutex
	done := 0
	report := func() {
		if progress == nil {
			return
		}
		mu.Lock()
		done++
		progress(done, total)
		mu.Unlock()
	}

	lockstep := cfg.Recorder == nil && cfg.Shards <= 1
	group := 1
	if lockstep {
		group = batchLanes(cfg.Nodes)
	}
	chunks := (total + group - 1) / group
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * group
				hi := lo + group
				if hi > total {
					hi = total
				}
				if lockstep {
					runLockstep(cfg, seeds[lo:hi], results[lo:hi], errs[lo:hi], report)
				} else {
					for i := lo; i < hi; i++ {
						c := cfg
						c.Seed = seeds[i]
						results[i], errs[i] = runSolo(c)
						report()
					}
				}
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runSolo is the fallback path: one ordinary Run per seed.
func runSolo(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// runLockstep advances one lane group: K independent Sims of the same
// configuration stepped through shared lookahead-sized time windows.
// Each window starts at the earliest pending event across live lanes
// and spans one wheel length, so the lane owning that event always
// dispatches, every lane stays within one wheel rotation of the group
// clock, and the loop provably terminates (budget checks bound every
// lane's lifetime).
func runLockstep(cfg Config, seeds []uint64, results []*Result, errs []error, report func()) {
	k := len(seeds)
	// Flat per-lane state: the batch loop reads these arrays, not the
	// Sims, so the window scan touches a few contiguous words per lane.
	sims := make([]*Sim, k)
	execs := make([]*exec, k)
	nodeCount := make([]int, k)
	live := make([]bool, k)
	nlive := 0
	var span int64
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := New(c)
		if err != nil {
			errs[i] = err
			report()
			continue
		}
		s.ran = true
		s.start()
		sims[i], execs[i], nodeCount[i] = s, s.ex, len(s.nodes)
		live[i] = true
		nlive++
		span = s.ex.q.Span()
	}
	for nlive > 0 {
		// Next window: [min pending time, +one wheel span).
		var w int64
		seen := false
		for i := range execs {
			if !live[i] {
				continue
			}
			if t, has := execs[i].q.NextAt(); has && (!seen || t < w) {
				w, seen = t, true
			}
		}
		bound := int64(math.MaxInt64) // all queues drained: let every lane diagnose
		if seen {
			bound = w + span
		}
		for i := range execs {
			if !live[i] {
				continue
			}
			x := execs[i]
			finished := false
			for x.doneNodes < nodeCount[i] {
				switch x.stepFast(bound) {
				case stepOK:
					continue
				case stepBound:
				default: // drained or stuck: diagnosed inside stepFast
					finished = true
				}
				break
			}
			if finished || x.doneNodes >= nodeCount[i] {
				results[i], errs[i] = sims[i].finish()
				live[i] = false
				nlive--
				report()
			}
		}
	}
}
