package main

import (
	"math"
	"sort"

	"fuzzybarrier/internal/stats"
)

// e2eDef is one end-to-end metric of BENCHMARK.json: what a user of the
// system sees, gated by a regression bound (share of the parent's
// median by which it may worsen).
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one per-layer metric of BENCHMARK.json (no bound).
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is the gated metric set. BENCHMARK.json's contract has every
// workload report every end-to-end metric and none may read 0, so the
// gated set is the family-neutral one; the family-named metrics of the
// issue (episode_ns.*, epoch_p50_ms, sim_events_per_s, ...) are the
// first block of perLayer and README.md maps one onto the other.
//
//	sync_us    wall-clock per synchronization: rt-* mean over the three
//	           impls of µs per barrier episode; svc-* median epoch
//	           latency; sim-* host µs per completed simulated episode.
//	ops_per_s  elementary operations per host second: rt-* participant
//	           arrivals; svc-* client arrivals; sim-* simulator events.
//
// The bounds are the contract's maximum: the 2-vCPU guests this was
// sized on wander by up to ~20% over tens of minutes on the
// memory-bound workloads (README.md, "Sizing rule"), and HeapSys moves
// in 4 MB steps, which is 12% of sim-cluster's heap.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.25},
	{"sync_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// familyE2E are the issue's family-named end-to-end metrics. A workload
// reports only its own family's; they come from the untraced pass, are
// printed by every run and compared by -compare with these bounds, and
// sit in BENCHMARK.json's per_layer list because its end_to_end list
// must be reported whole by every workload.
var familyE2E = []e2eDef{
	{"fail_ratio", "ratio", "lower", 0},
	{"episode_ns.central", "ns", "lower", 0.25},
	{"episode_ns.tree", "ns", "lower", 0.25},
	{"episode_ns.hier", "ns", "lower", 0.25},
	{"epoch_p50_ms", "ms", "lower", 0.25},
	{"epoch_p99_ms", "ms", "lower", 0.25},
	{"epochs_per_s", "1/s", "higher", 0.25},
	{"sim_episodes_per_s", "1/s", "higher", 0.25},
	{"sim_events_per_s", "1/s", "higher", 0.25},
}

// implKeys are the metric suffixes of the three runtime barriers under
// test, in the order of impls (rt.go).
var implKeys = []string{"central", "tree", "hier"}

// perLayer lists every metric of the traced run (--trace 1). A metric
// that does not apply to a workload's family reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var out []layerDef
	add := func(name, unit, better string) { out = append(out, layerDef{name, unit, better}) }
	perImpl := func(prefix, unit, better string) {
		for _, k := range implKeys {
			add(prefix+"."+k, unit, better)
		}
	}

	for _, d := range familyE2E {
		add(d.Name, d.Unit, d.Better)
	}

	// internal/core through core.SplitBarrier.
	perImpl("core.arrive_ns_p50", "ns", "lower")
	perImpl("core.wait_ns_p50", "ns", "lower")
	perImpl("core.wait_ns_p99", "ns", "lower")
	perImpl("core.fast_wait_ratio", "ratio", "higher")
	perImpl("core.block_rate", "ratio", "lower")
	perImpl("core.spin_iters_per_wait", "count", "lower")
	perImpl("core.hotspot_ops_per_phase", "count", "lower")
	perImpl("core.stall_share", "ratio", "lower")
	perImpl("core.sync_overhead_ns", "ns", "lower")
	perImpl("core.region_gain", "ratio", "higher")
	add("core.allocs_per_episode", "count", "lower")
	add("baseline.episode_ns.sense", "ns", "lower")
	add("bench.body_ns", "ns", "lower")

	// internal/barrierd, seen through tapNet and the client calls.
	add("barrierd.traced_epoch_ms", "ms", "lower")
	for _, s := range segNames {
		add("barrierd."+s+"_ms", "ms", "lower")
	}
	for _, k := range []string{"arrive", "combine", "release", "join"} {
		add("barrierd.shard_busy_ns_per_epoch."+k, "ns", "lower")
	}
	add("barrierd.shard_busy_share.max", "ratio", "lower")
	add("barrierd.client_call_ns_per_epoch", "ns", "lower")
	add("barrierd.ids_per_epoch", "count", "lower")
	for _, k := range []string{"arrive", "combine", "release", "ack"} {
		add("barrierd.msgs_per_epoch."+k, "count", "lower")
	}
	add("barrierd.join_us_per_client", "us", "lower")
	add("barrierd.leave_rejoin_ms_p50", "ms", "lower")
	add("barrierd.stuck_reports", "count", "lower")

	// internal/transport.
	add("transport.queue_wait_us_p50", "us", "lower")
	add("transport.queue_wait_us_p99", "us", "lower")
	add("transport.wire_bytes_per_epoch", "B", "lower")
	add("transport.codec_ns_per_msg", "ns", "lower")
	add("transport.codec_allocs_per_msg", "count", "lower")
	add("transport.retransmits_per_epoch", "count", "lower")
	add("transport.dup_deliveries_per_epoch", "count", "lower")
	add("transport.acks_per_reliable_msg", "ratio", "lower")
	add("transport.chan_drops", "count", "lower")
	add("transport.simnet_ns_per_event", "ns", "lower")
	add("transport.simnet_allocs_per_event", "count", "lower")
	add("transport.simnet_events_per_epoch", "count", "lower")

	// internal/cluster.
	add("cluster.ns_per_event", "ns", "lower")
	add("cluster.allocs_per_event", "count", "lower")
	add("cluster.events_per_episode", "count", "lower")
	add("cluster.sim_ticks", "ticks", "lower")
	add("cluster.retransmits", "count", "lower")
	add("cluster.par_speedup", "ratio", "higher")
	add("cluster.batch_ns_per_seed_episode", "ns", "lower")

	// The benchmark's own cost.
	add("bench.trace_overhead_ratio", "ratio", "lower")
	add("bench.alloc_kb_per_episode", "kB", "lower")
	add("bench.gc_pause_ms_total", "ms", "lower")
	return out
}

// segNames are the six telescoping segments of a service epoch, in
// milestone order T0..T6 (see tap.go).
var segNames = [6]string{
	"seg_client_batch", "seg_ingress", "seg_combine",
	"seg_home", "seg_release_fanout", "seg_conn_dispatch",
}

// unitOf returns the declared unit of a metric name ("" if unknown).
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// summary is a metric's value over a run's trials: the median, with the
// quartiles and the number of per-trial values behind it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// samples collects per-trial values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summarize reduces every metric to its median and quartiles.
func (s samples) summarize() map[string]summary {
	out := make(map[string]summary, len(s))
	for name, vs := range s {
		q1, med, q3 := quartiles(vs)
		out[name] = summary{Value: med, Unit: unitOf(name), Q1: q1, Q3: q3, N: len(vs)}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of
// xs (linear interpolation; all equal to the value for one sample).
func quartiles(xs []float64) (q1, med, q3 float64) {
	q := pcts(xs, 25, 50, 75)
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 { return pcts(xs, 50)[0] }

// pcts returns the given percentiles of an unsorted sample, sorting it
// once.
func pcts(xs []float64, ps ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = stats.Percentile(sorted, p)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a metric whose base was never
// exercised reads 0, like any inapplicable per-layer metric).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
