package main

import (
	"fmt"
	"runtime"
	"time"
)

// params is what one run of one workload is given. The program under
// test receives only inputs generated from seed.
type params struct {
	seed    uint64
	seconds float64 // measured (timed) work of the whole run
	traced  bool    // also run the traced pass and report per-layer metrics
	procs   int     // GOMAXPROCS of the run
	spanDir string  // directory for trace-<workload>.json ("" = not written)

	// tiny shrinks every size so a workload completes in well under a
	// second; it is set by the smoke test only, never by a flag.
	tiny bool
}

// plan splits the run's measured seconds into untraced trials: 5, or 3
// when the traced pass follows, since per-layer metrics carry no bound.
func (p params) plan() (trials int, trialSeconds float64) {
	switch {
	case p.tiny:
		return 1, 0.05
	case p.traced:
		return 3, p.seconds / 5
	}
	return 5, p.seconds / 5
}

// tracedShare is the size of a traced trial relative to an untraced
// one, which keeps a traced run (3 + 3 trials) near an untraced one's
// length.
const tracedShare = 0.5

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(p params) (*result, error)
}

// workloads is the benchmark's workload set, in BENCHMARK.json order.
var workloads = []workload{
	{"rt-spin", "one participant per P, no work: every Wait resolves on the fast or spin path, so arrive + publish + spin wake-up is the cost", runRTSpin},
	{"rt-block", "64 participants on the same Ps, no work: goroutines outnumber Ps, so every Wait goes through the spin/yield budget and the lock/block path and release broadcast are the cost", runRTBlock},
	{"rt-region", "seeded 0.5-1.5x ~20us bodies with half between Arrive and Wait (the paper's Section 8): drift is absorbed, the fast path dominates", runRTRegion},
	{"svc-1m", "1,000,000 clients in 4 groups on ChanNet: per-client work (id-list copies, applyArrive per client, GC) dominates the epoch", runSvc1M},
	{"svc-small", "2,048 clients in 64 groups on ChanNet: per-client work is negligible, so flush delay, combine hops, ack batching and wake-ups set the latency", runSvcSmall},
	{"svc-udp-churn", "10,000 clients in 2 groups over loopback UDP with a 5% leave/rejoin cohort per epoch: the only run of the codec, real sockets and the membership write path", runSvcUDPChurn},
	{"sim-cluster", "cluster.Sim, dissemination on 4096 lossy nodes, serial typed engine: the event-engine hot loop", runSimCluster},
	{"sim-svc", "barrierd on lossy SimNet, 64 conns x 64 groups x 8 clients, Step-driven: SimNet's closure heap does the work and every count repeats exactly", runSimSvc},
}

// result is what a workload's run produced: per-trial values of every
// metric it reports, and the outcome of its output checks.
type result struct {
	sizes     map[string]any // recorded in the run's environment record
	trials    int
	attempted int64    // episodes / group-epochs / node-episodes tried
	failed    int64    // of those, how many failed an output check
	problems  []string // failed structural checks (replay, telescoping, ...)

	e2e   samples // endToEnd metrics, untraced pass
	layer samples // perLayer metrics (family end-to-end included)

	heapPeak uint64 // max HeapSys seen at the end of a timed phase
}

func newResult(sizes map[string]any) *result {
	return &result{sizes: sizes, e2e: samples{}, layer: samples{}}
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// memPhase measures the Go runtime's memory counters across one timed
// phase; ReadMemStats stops the world, so both reads sit outside it.
type memPhase struct{ before runtime.MemStats }

func startMem() *memPhase {
	m := &memPhase{}
	runtime.ReadMemStats(&m.before)
	return m
}

type memDelta struct {
	allocBytes, mallocs uint64
	gcPause             time.Duration
	heapSys             uint64
}

func (m *memPhase) stop() memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - m.before.TotalAlloc,
		mallocs:    after.Mallocs - m.before.Mallocs,
		gcPause:    time.Duration(after.PauseTotalNs - m.before.PauseTotalNs),
		heapSys:    after.HeapSys,
	}
}

// noteMem folds one timed phase's memory cost into the result.
func (r *result) noteMem(d memDelta, syncs float64) {
	if d.heapSys > r.heapPeak {
		r.heapPeak = d.heapSys
	}
	r.layer.add("bench.alloc_kb_per_episode", ratio(float64(d.allocBytes)/1024, syncs))
	r.layer.add("bench.gc_pause_ms_total", float64(d.gcPause.Nanoseconds())/1e6)
}

// finish adds the run-level metrics once every trial is in.
func (r *result) finish(tracedHeadline []float64) {
	r.e2e.add("heap_peak_mb", float64(r.heapPeak)/(1<<20))
	r.layer.add("fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	if len(tracedHeadline) > 0 {
		r.layer.add("bench.trace_overhead_ratio", ratio(median(tracedHeadline), median(r.e2e["sync_us"])))
	}
}

// extraSetups repeats a cheap set-up until setup_s rests on at least 15
// samples (or 0.3 s is spent), so a sub-millisecond set-up still
// reports a steady median.
func (r *result) extraSetups(p params, setup func() (time.Duration, error)) error {
	if p.tiny {
		return nil
	}
	start := time.Now()
	for len(r.e2e["setup_s"]) < 15 && time.Since(start) < 300*time.Millisecond {
		d, err := setup()
		if err != nil {
			return err
		}
		r.e2e.add("setup_s", d.Seconds())
	}
	return nil
}
