package exp

import (
	"fmt"
	"hash/fnv"
	"strings"

	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/trace"
)

// E21 parameters: a lossy mid-size cluster — large enough that every
// shard count in the sweep owns multiple nodes and the conservative
// windows carry real cross-shard traffic, small enough that the full
// grid (protocols x shard counts, logs on) regenerates in seconds.
const (
	e21Nodes  = 64
	e21Epochs = 12
	e21Seed   = 0xE21
)

// e21Shards is the shard-count sweep: serial baseline, then powers of
// two past any plausible GOMAXPROCS rounding.
var e21Shards = []int{1, 2, 4, 8}

// e21Config is the shared run configuration; only Seed and Shards vary.
func e21Config() cluster.Config {
	return cluster.Config{
		Protocol: "dissemination", Nodes: e21Nodes, Epochs: e21Epochs,
		Work: 150, WorkJitter: 60, Region: 30,
		Net:  cluster.NetConfig{Latency: 12, Jitter: 25, DropRate: 0.1, DupRate: 0.05},
		Seed: e21Seed,
	}
}

// E21ParallelEquivalence is the determinism audit of the sharded
// engine (DESIGN.md section 14). For every protocol and shard count it
// replays one lossy run with full event logging and fingerprints the
// transcript (event log + Result); all shard counts of a protocol must
// produce the serial fingerprint bit-for-bit. The table is fully
// deterministic — wall-clock speedup is measured by `bash bench/run.sh
// -workload sim-cluster -trace 1` (cluster.par_speedup) and enforced by
// TestParallelEngineSpeedupGate in `make bench-gate`, per the repro
// note on time-shared measurements.
func E21ParallelEquivalence() (*trace.Table, error) {
	t := trace.NewTable(
		fmt.Sprintf("E21: parallel-engine equivalence, %d nodes (shard counts %v)", e21Nodes, e21Shards),
		"protocol", "shards", "ticks", "msgs/epoch", "retrans/epoch", "transcript",
	)
	protos := cluster.Protocols()
	nS := len(e21Shards)
	type cell struct {
		res  *cluster.Result
		hash uint64
	}
	cells, err := sweepRun(len(protos)*nS, func(i int) (cell, error) {
		cfg := e21Config()
		cfg.Protocol = protos[i/nS]
		cfg.Shards = e21Shards[i%nS]
		cfg.LogEvents = true
		sim, err := cluster.New(cfg)
		if err != nil {
			return cell{}, fmt.Errorf("E21 %s/shards=%d: %w", cfg.Protocol, cfg.Shards, err)
		}
		res, err := sim.Run()
		if err != nil {
			return cell{}, fmt.Errorf("E21 %s/shards=%d: %w", cfg.Protocol, cfg.Shards, err)
		}
		h := fnv.New64a()
		h.Write([]byte(strings.Join(sim.EventLog(), "\n")))
		fmt.Fprintf(h, "%+v", res)
		return cell{res: res, hash: h.Sum64()}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, proto := range protos {
		serial := cells[pi*nS]
		for si, shards := range e21Shards {
			c := cells[pi*nS+si]
			t.AddRow(proto, shards, c.res.Ticks, c.res.MsgsPerEpoch(), c.res.RetransmitsPerEpoch(),
				fmt.Sprintf("%016x", c.hash))
			if c.hash != serial.hash {
				t.AddNote("WARNING: %s shards=%d transcript diverges from serial (%016x vs %016x)",
					proto, shards, c.hash, serial.hash)
			}
		}
	}
	t.AddNote("transcript = FNV-1a over the full event log + Result; every shard count of a protocol must hash identically (conservative windows + canonical event keys, DESIGN.md section 14)")
	t.AddNote("wall-clock speedup is deliberately absent: it lives in bench/run.sh -workload sim-cluster (cluster.par_speedup) and the bench-gate speedup tests")
	return t, nil
}
