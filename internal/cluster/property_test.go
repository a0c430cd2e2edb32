package cluster

import (
	"fmt"
	"testing"

	"fuzzybarrier/internal/des"
)

// TestPropertyNoEarlyRelease is the barrier-correctness property under
// fault injection: for every protocol, under random drop / duplication
// / jitter / straggler schedules, no node's Wait(e) may become
// satisfiable before ALL n nodes have issued Arrive(e). The subtests
// run in parallel, so `go test -race` (the make verify gate) also
// checks that independent sims share no hidden mutable state.
func TestPropertyNoEarlyRelease(t *testing.T) {
	nets := []NetConfig{
		{Latency: 20, Jitter: 0, DropRate: 0, DupRate: 0},
		{Latency: 20, Jitter: 30, DropRate: 0.1, DupRate: 0.05},
		{Latency: 5, Jitter: 50, DropRate: 0.25, DupRate: 0.25},
	}
	for _, proto := range Protocols() {
		for ni, net := range nets {
			for seed := uint64(1); seed <= 4; seed++ {
				proto, net, seed := proto, net, seed
				name := fmt.Sprintf("%s/net%d/seed%d", proto, ni, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rng := des.NewRNG(des.Mix(seed, 99))
					cfg := Config{
						Protocol:      proto,
						Nodes:         2 + int(rng.IntN(9)), // 2..10, covers non-powers of two
						Epochs:        25,
						Work:          100 + rng.IntN(200),
						WorkJitter:    rng.IntN(120),
						Region:        rng.IntN(250),
						Straggler:     int(rng.IntN(2)),
						StraggleExtra: rng.IntN(90),
						Net:           net,
						Seed:          seed,
					}
					res := runSim(t, cfg)
					if res.Stuck != nil {
						t.Fatalf("stuck:\n%s", res.Stuck)
					}
					for e := 0; e < cfg.Epochs; e++ {
						var lastArrive, firstRelease int64
						firstRelease = 1 << 62
						for n := 0; n < cfg.Nodes; n++ {
							if a := res.ArriveAt[n][e]; a > lastArrive {
								lastArrive = a
							}
							if r := res.ReleaseAt[n][e]; r < firstRelease {
								firstRelease = r
							}
						}
						if firstRelease < lastArrive {
							t.Fatalf("epoch %d: a Wait completed at t=%d before the last Arrive at t=%d",
								e, firstRelease, lastArrive)
						}
					}
				})
			}
		}
	}
}
