package exp

import (
	"fmt"

	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/trace"
)

// E16 parameters: the node count sweeps from 16 to 4096 over a mildly
// lossy network while the per-epoch body stays fixed, so every column
// isolates how each protocol's synchronization structure scales. The
// typed-event engine makes the top of the sweep practical: one
// dissemination epoch at 4096 nodes is ~100k reliable messages, and the
// whole table is a few million simulated events.
const (
	e16Epochs     = 8
	e16Work       = 400
	e16WorkJitter = 80 // local drift amplitude
	e16Region     = 60 // barrier region available to absorb release latency
	e16Latency    = 20
	e16NetJitter  = 10
)

// e16Nodes is the scaling sweep (powers of four up to 4096).
var e16Nodes = []int{16, 64, 256, 1024, 4096}

// e16Net is the lossy-lite fault level: enough loss and duplication
// that retransmission machinery is exercised at every scale, small
// enough that recovery noise does not drown the scaling shapes.
var e16Net = cluster.NetConfig{
	Latency: e16Latency, Jitter: e16NetJitter, DropRate: 0.005, DupRate: 0.002,
}

// E16ClusterScaling asks the paper's hot-spot question (Section 1) at
// cluster scale: how do the three barrier protocols' message cost and
// unabsorbed stall grow as the cluster grows to 4096 nodes? Expected
// shapes, checked with slack: msgs/epoch per node is non-decreasing in
// n for every protocol — approaching a constant 2 for central and tree
// (one arrival plus one release per node) and growing as ceil(log2 n)
// for dissemination — and stall/epoch is non-decreasing in n, since a
// fixed region absorbs less of a release latency that lengthens with
// the coordinator's burst, the tree's depth, or the dissemination
// round count. All columns are deterministic (seeded, single-threaded
// per cell); engine wall-clock lives in bench/'s sim-cluster workload,
// per the repro note on time-shared measurements.
func E16ClusterScaling() (*trace.Table, error) {
	t := trace.NewTable(
		fmt.Sprintf("E16: cluster barrier scaling, %d..%d nodes (message passing, lossy network)",
			e16Nodes[0], e16Nodes[len(e16Nodes)-1]),
		"protocol", "nodes", "ticks", "stall/epoch", "msgs/epoch", "retrans/epoch",
	)
	protos := cluster.Protocols()
	nN := len(e16Nodes)
	// Flatten the (protocol, nodes) grid into one sweep; each cell keeps
	// its own fixed seed, so the table is bit-identical at any
	// parallelism.
	cells, err := sweepRun(len(protos)*nN, func(i int) (*cluster.Result, error) {
		proto := protos[i/nN]
		ni := i % nN
		res, err := e16Run(proto, e16Nodes[ni], e16Seed(i/nN, ni))
		if err != nil {
			return nil, fmt.Errorf("E16 %s/n=%d: %w", proto, e16Nodes[ni], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, proto := range protos {
		var stallSeries, msgSeries stats.Series
		for ni, nodes := range e16Nodes {
			res := cells[pi*nN+ni]
			stall := res.StallPerEpoch()
			msgs := res.MsgsPerEpoch()
			t.AddRow(proto, nodes, res.Ticks, stall, msgs, res.RetransmitsPerEpoch())
			stallSeries.Add(float64(nodes), stall)
			msgSeries.Add(float64(nodes), msgs)
		}
		// Loss-recovery noise moves stall by a few ticks per epoch at
		// the large-n points; the scaling trend dwarfs it.
		if !stallSeries.MonotoneSlack(1, 0.1, 3) {
			t.AddNote("WARNING: %s stall/epoch is not non-decreasing in nodes: %v", proto, stallSeries.Y)
		}
		if !msgSeries.MonotoneSlack(1, 0.05, 0.1) {
			t.AddNote("WARNING: %s msgs/epoch is not non-decreasing in nodes: %v", proto, msgSeries.Y)
		}
	}
	t.AddNote("msgs/epoch: central and tree approach 2 per node (arrival + release), dissemination grows as ceil(log2 n) — the protocols' structural cost")
	t.AddNote("stall/epoch grows with n for every protocol: a fixed region absorbs less of a release latency that lengthens with coordinator burst, tree depth, or round count")
	t.AddNote("wall-clock per engine is measured by bench/'s sim-cluster workload, not here: tables stay deterministic")
	return t, nil
}

// e16Seed derives a distinct, fixed seed per (protocol, nodes) cell.
func e16Seed(proto, nodes int) uint64 {
	return uint64(0xE16<<16 | proto<<8 | nodes)
}

// e16Run executes one cluster configuration of the scaling sweep.
func e16Run(proto string, nodes int, seed uint64) (*cluster.Result, error) {
	sim, err := cluster.New(cluster.Config{
		Protocol:   proto,
		Nodes:      nodes,
		Epochs:     e16Epochs,
		Work:       e16Work - e16WorkJitter/2,
		WorkJitter: e16WorkJitter,
		Region:     e16Region,
		Net:        e16Net,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
