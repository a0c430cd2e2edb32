// Package cluster implements the paper's split-phase fuzzy barrier as
// message-passing protocols over a simulated lossy network.
//
// The shared-memory embodiments (internal/core, internal/machine) absorb
// drift that comes from cache misses and workload imbalance; at cluster
// scale the dominant drift source is the network itself — link latency,
// jitter, message loss, duplication and reordering. This package runs the
// same Arrive/Wait episode structure over a deterministic discrete-event
// network simulator and asks the paper's question again: does a barrier
// region overlap (absorb) the synchronization latency a crisp barrier
// would pay in full?
//
// Three protocols are provided, mirroring the software-barrier spectrum
// of internal/baseline:
//
//   - "central":       every node reliably sends ARRIVE(e) to node 0;
//     node 0 reliably broadcasts RELEASE(e) once all n arrived.
//   - "tree":          arrivals combine up a radix-k tree; the root
//     starts a RELEASE wave back down it.
//   - "dissemination": ceil(log2 n) rounds of pairwise ROUND(e, r)
//     messages; no coordinator, every node completes locally.
//
// All protocol messages carry epoch tags and per-sender sequence
// numbers, are retransmitted on a Jacobson/Karels-estimated timeout with
// exponential backoff (stats.RTTEstimator), and are acknowledged; receive
// handling is idempotent, so drops, duplicates and reorderings never
// violate the barrier condition: no node completes Wait for epoch e
// before all n nodes have issued Arrive(e). A watchdog declares the run
// stuck when no epoch completes for a configurable span and reports
// which node/epoch is wedged, through the event log, the error, and
// trace.EvTimeout events.
//
// Everything is seeded and single-threaded, so a run is replayable: the
// same Config produces a byte-identical event log, message by message,
// even with faults enabled.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"fuzzybarrier/internal/trace"
)

// NetConfig describes the simulated links. Every transmission draws its
// own latency and fault outcomes from the run's seeded RNG, so jitter
// also yields reordering: two messages on the same link may overtake
// each other.
type NetConfig struct {
	Latency  int64   // base one-way latency, ticks
	Jitter   int64   // uniform extra latency in [0, Jitter]
	DropRate float64 // probability a transmission is lost
	DupRate  float64 // probability a transmission is delivered twice
}

// Config describes one cluster-barrier run. The zero value is not
// runnable; New applies defaults for everything left zero except
// Protocol, Nodes and Epochs, which callers must set.
type Config struct {
	Protocol string // one of Protocols()
	Nodes    int
	Epochs   int

	// Per-epoch node behaviour: Work ticks of non-barrier work (plus a
	// uniform draw in [0, WorkJitter] of drift), then Arrive, then Region
	// ticks of barrier-region work, then Wait.
	Work       int64
	WorkJitter int64
	Region     int64

	// Straggler injection: node Straggler performs StraggleExtra
	// additional work ticks every epoch. Active only when
	// StraggleExtra > 0, so the zero value injects nothing.
	Straggler     int
	StraggleExtra int64

	Net NetConfig

	TreeArity int // combining-tree fanout, default 2

	Seed uint64

	// Liveness knobs; New derives defaults from the link latency and
	// epoch span when zero.
	WatchdogAfter int64 // no epoch completion for this many ticks => stuck
	MaxTicks      int64 // hard stop for the whole run

	// Retransmission timeouts, always derived from the link latency by
	// withDefaults: initRTO before any RTT sample, maxRTO the
	// exponential-backoff cap.
	initRTO, maxRTO int64

	LogEvents bool            // record the textual event log (Sim.EventLog)
	Recorder  *trace.Recorder // optional lane/event recording (nil = off)

	// Shards > 1 runs the sharded parallel engine (par.go): nodes are
	// split into that many contiguous groups, each advanced by its own
	// worker under conservative lookahead windows. Results and event
	// logs are byte-identical to the serial engine at every shard
	// count; the knob trades wall-clock for cores. Clamped to
	// [1, Nodes]; <= 0 (the zero value) selects the serial engine.
	// Incompatible with Recorder (lane recording is inherently
	// sequential).
	Shards int
}

// maxNodes bounds Config.Nodes so delivery priorities (sender id above
// a 40-bit per-sender transmission counter, below the local-event bit)
// can never collide; see sim.go's key layout.
const maxNodes = 1 << 22

// Protocols returns the implemented protocol names in presentation
// order. Experiment sweeps and the clustersim CLI derive their ranges
// from this registry.
func Protocols() []string { return []string{"central", "tree", "dissemination"} }

// withDefaults validates cfg and fills the derived knobs.
func (cfg Config) withDefaults() (Config, error) {
	known := false
	for _, p := range Protocols() {
		if p == cfg.Protocol {
			known = true
		}
	}
	if !known {
		return cfg, fmt.Errorf("cluster: unknown protocol %q (known: %s)",
			cfg.Protocol, strings.Join(Protocols(), " "))
	}
	if cfg.Nodes < 1 {
		return cfg, fmt.Errorf("cluster: need >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.Nodes > maxNodes {
		// Delivery priorities pack (sender+1, per-sender transmission
		// counter) into 64 bits below localPriBit; the cap keeps that
		// packing collision-free with enormous headroom.
		return cfg, fmt.Errorf("cluster: %d nodes exceeds the supported maximum %d", cfg.Nodes, maxNodes)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	if cfg.Shards > 1 && cfg.Recorder != nil {
		return cfg, fmt.Errorf("cluster: Shards=%d is incompatible with a trace Recorder (use LogEvents)", cfg.Shards)
	}
	if cfg.StraggleExtra > 0 && (cfg.Straggler < 0 || cfg.Straggler >= cfg.Nodes) {
		return cfg, fmt.Errorf("cluster: straggler %d outside [0,%d)", cfg.Straggler, cfg.Nodes)
	}
	if cfg.Epochs < 0 {
		return cfg, fmt.Errorf("cluster: negative epoch count %d", cfg.Epochs)
	}
	for _, r := range []float64{cfg.Net.DropRate, cfg.Net.DupRate} {
		if !(r >= 0 && r <= 1) { // NaN fails both comparisons
			return cfg, fmt.Errorf("cluster: fault rate %v outside [0,1]", r)
		}
	}
	for _, v := range []struct {
		name string
		v    int64
	}{
		{"Work", cfg.Work}, {"WorkJitter", cfg.WorkJitter},
		{"Region", cfg.Region}, {"StraggleExtra", cfg.StraggleExtra},
	} {
		if v.v < 0 {
			return cfg, fmt.Errorf("cluster: negative %s %d", v.name, v.v)
		}
	}
	if cfg.Net.Latency < 1 {
		cfg.Net.Latency = 1
	}
	if cfg.Net.Jitter < 0 {
		cfg.Net.Jitter = 0
	}
	if cfg.TreeArity < 2 {
		cfg.TreeArity = 2
	}
	// The derived liveness budgets multiply user-sized knobs, so very
	// large Epochs/Work/latency configs can overflow int64 and turn the
	// budget negative — which would declare every run stuck at t=0.
	// Derive with overflow checks and reject configs whose budget does
	// not fit, telling the caller to set the knob explicitly.
	ticks := tickBudget{}
	// A shade above the worst-case RTT so a clean network never
	// retransmits spuriously.
	cfg.initRTO = ticks.add(ticks.mul(2, ticks.add(cfg.Net.Latency, cfg.Net.Jitter)), 2)
	cfg.maxRTO = ticks.mul(16, cfg.initRTO)
	span := ticks.add(ticks.add(cfg.Work, cfg.WorkJitter), ticks.add(cfg.Region, ticks.add(cfg.StraggleExtra, 1)))
	if cfg.WatchdogAfter <= 0 {
		cfg.WatchdogAfter = ticks.add(ticks.mul(16, span), ticks.mul(64, cfg.maxRTO))
	}
	if cfg.MaxTicks <= 0 {
		epochs := int64(cfg.Epochs) + 2
		cfg.MaxTicks = ticks.add(
			ticks.mul(ticks.mul(epochs, 4), span),
			ticks.mul(ticks.mul(epochs, 64), cfg.maxRTO))
	}
	if ticks.overflowed {
		return cfg, fmt.Errorf(
			"cluster: derived tick budget overflows int64 (Epochs=%d Work=%d WorkJitter=%d Region=%d StraggleExtra=%d Latency=%d Jitter=%d); set WatchdogAfter/MaxTicks explicitly",
			cfg.Epochs, cfg.Work, cfg.WorkJitter, cfg.Region, cfg.StraggleExtra, cfg.Net.Latency, cfg.Net.Jitter)
	}
	return cfg, nil
}

// tickBudget is saturating non-negative int64 arithmetic for the
// derived liveness budgets: results clamp at MaxInt64 and the overflow
// is latched so withDefaults can surface one config error instead of a
// silently negative budget.
type tickBudget struct{ overflowed bool }

func (t *tickBudget) add(a, b int64) int64 {
	if a > math.MaxInt64-b {
		t.overflowed = true
		return math.MaxInt64
	}
	return a + b
}

func (t *tickBudget) mul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		t.overflowed = true
		return math.MaxInt64
	}
	return a * b
}

// StuckReport describes a watchdog firing: what tripped it, which node
// is furthest behind, in which epoch, and one state line per node.
type StuckReport struct {
	At    int64 // sim time of the diagnosis
	Node  int   // laggiest node
	Epoch int64 // the epoch it has not completed

	// Why names the liveness check that fired: "event queue drained"
	// (nothing left to simulate but nodes unfinished — a protocol that
	// stopped sending), "no epoch completed within watchdog window"
	// (events still flowing but no progress), or "tick budget
	// exhausted".
	Why string

	States []string // one line per node
}

// String renders the report for logs and errors.
func (r *StuckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stuck at t=%d (%s): node %d has not completed epoch %d\n", r.At, r.Why, r.Node, r.Epoch)
	for _, s := range r.States {
		b.WriteString("  ")
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// Result summarizes one run.
type Result struct {
	Protocol string
	Nodes    int
	Epochs   int

	Ticks int64 // sim time when the last node finished its last epoch

	Stall        int64   // total ticks nodes spent blocked in Wait
	PerNodeStall []int64 // per-node share of Stall

	// Per-node, per-epoch timestamps, for invariant checks: ArriveAt is
	// when the node issued Arrive(e); ReleaseAt is when Wait(e) became
	// satisfiable at that node (its release arrived or was computed).
	ArriveAt  [][]int64
	ReleaseAt [][]int64

	Sends       int64 // protocol messages handed to the network (first transmissions)
	Retransmits int64 // retransmission-timer firings that re-sent
	Drops       int64 // transmissions lost by the network
	Dups        int64 // transmissions duplicated by the network
	Delivered   int64 // deliveries (including duplicates)

	Stuck *StuckReport // non-nil when the watchdog fired
}

// episodes returns the number of completed (node, epoch) episodes.
func (r *Result) episodes() float64 {
	n := float64(r.Nodes) * float64(r.Epochs)
	if n == 0 {
		return 1
	}
	return n
}

// StallPerEpoch returns the mean blocked ticks per node per epoch.
func (r *Result) StallPerEpoch() float64 { return float64(r.Stall) / r.episodes() }

// MsgsPerEpoch returns protocol messages (excluding acks and
// retransmissions) per node per epoch.
func (r *Result) MsgsPerEpoch() float64 { return float64(r.Sends) / r.episodes() }

// RetransmitsPerEpoch returns retransmissions per node per epoch.
func (r *Result) RetransmitsPerEpoch() float64 { return float64(r.Retransmits) / r.episodes() }

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s nodes=%d epochs=%d ticks=%d stall/epoch=%.1f msgs/epoch=%.1f retrans/epoch=%.2f drops=%d dups=%d",
		r.Protocol, r.Nodes, r.Epochs, r.Ticks, r.StallPerEpoch(), r.MsgsPerEpoch(), r.RetransmitsPerEpoch(), r.Drops, r.Dups)
	if r.Stuck != nil {
		s += " STUCK"
	}
	return s
}
