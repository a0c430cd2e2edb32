// Command barbench measures runtime (goroutine) barrier implementations:
// the conventional barriers of internal/baseline and the split-phase fuzzy
// barriers of internal/core (central-counter "fuzzy", combining-tree
// "fuzzy-tree", the value-carrying allreduce "fuzzy-reduce", and the
// two-level sharded "hier"), optionally with a busy "barrier region"
// between Arrive and Wait — the software analog of the Section 8 Encore
// measurement.
//
// Usage:
//
//	barbench                        # all barriers, default sizes
//	barbench -procs 4 -episodes 100000
//	barbench -impl fuzzy -region 50 # fuzzy with 50 units of region work
//	barbench -impl fuzzy-tree -procs 256
//	barbench -json > bench.json     # machine-readable measurements
//	barbench -cpuprofile cpu.pprof  # write a pprof CPU profile
//	barbench -mutexprofile m.pprof  # pprof mutex-contention profile
//	                                # (also -memprofile, -blockprofile)
//
// Wall-clock numbers on a time-shared goroutine scheduler are noisy; run
// several times and look at the ordering, not the absolute values (the
// deterministic version of this experiment is cmd/experiments -id E2).
// For split barriers the tool also prints hotspot ops/phase — the atomic
// traffic on the most-contended counter word, which is deterministic and
// shows the central-vs-tree crossover regardless of host core count —
// plus the barrier's counter/histogram snapshot (syncs, fast/spin/blocked
// waits, wait-spin histogram); disable the snapshot with -stats=false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"fuzzybarrier/internal/baseline"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/prof"
)

// record is the machine-readable form of one measurement (-json).
type record struct {
	Impl       string      `json:"impl"`
	Split      bool        `json:"split"`
	Procs      int         `json:"procs"`
	Episodes   int         `json:"episodes"`
	MaxProcs   int         `json:"maxprocs"`
	Work       int         `json:"work,omitempty"`
	Region     int         `json:"region,omitempty"`
	TotalNs    int64       `json:"total_ns"`
	NsPerEp    int64       `json:"ns_per_episode"`
	HotspotOps *float64    `json:"hotspot_ops_per_phase,omitempty"`
	Stats      *splitStats `json:"stats,omitempty"`
}

// splitStats flattens core.BarrierStats for JSON consumers. The four
// wait counters partition Waits() by outcome: fast (already published),
// spin (resolved while spinning), lock (budget exhausted but resolved at
// the locked recheck, no sleep), block (really slept).
type splitStats struct {
	Syncs     int64   `json:"syncs"`
	Arrivals  int64   `json:"arrivals"`
	FastWaits int64   `json:"fast_waits"`
	SpinWaits int64   `json:"spin_waits"`
	LockWaits int64   `json:"lock_waits"`
	Blocks    int64   `json:"blocks"`
	SpinIters int64   `json:"spin_iters"`
	BlockRate float64 `json:"block_rate"`
}

// spin burns roughly n units of CPU without touching shared memory.
func spin(n int) uint64 {
	var x uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < n*8; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	return x
}

var sink uint64

func measurePoint(name string, procs, episodes int) (time.Duration, error) {
	b, err := baseline.New(name, procs)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				b.Await(id)
			}
		}(p)
	}
	wg.Wait()
	return time.Since(start), nil
}

func measureSplit(name string, procs, episodes, work, region int) (time.Duration, core.SplitBarrier, error) {
	b, err := baseline.NewSplit(name, procs)
	if err != nil {
		return 0, nil, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var acc uint64
			for e := 0; e < episodes; e++ {
				acc += spin(work)
				ph := b.Arrive()
				acc += spin(region)
				b.Wait(ph)
			}
			sink += acc
		}(p)
	}
	wg.Wait()
	return time.Since(start), b, nil
}

func isSplit(name string) bool {
	for _, s := range baseline.SplitNames() {
		if s == name {
			return true
		}
	}
	return false
}

func main() {
	procs := flag.Int("procs", 4, "participants")
	episodes := flag.Int("episodes", 50_000, "barrier episodes")
	impl := flag.String("impl", "", "single implementation (default: all)")
	work := flag.Int("work", 20, "per-episode non-barrier work units (split barriers only)")
	region := flag.Int("region", 0, "per-episode barrier-region work units (split barriers only)")
	stats := flag.Bool("stats", true, "print the barrier's counter/histogram snapshot (split barriers only)")
	jsonOut := flag.Bool("json", false, "emit a JSON array of measurements instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof blocking profile to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *mutexProfile, *blockProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "barbench: %v\n", err)
		os.Exit(1)
	}
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "barbench: %v\n", err)
		stopProf()
		os.Exit(1)
	}

	if *procs > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "barbench: note: %d participants > GOMAXPROCS=%d; spin barriers will thrash\n",
			*procs, runtime.GOMAXPROCS(0))
	}

	names := baseline.Names()
	if *impl != "" {
		names = []string{*impl}
	}
	var records []record
	for _, name := range names {
		if isSplit(name) {
			d, b, err := measureSplit(name, *procs, *episodes, *work, *region)
			if err != nil {
				die(err)
			}
			var hotspotPerPhase *float64
			if prof, ok := b.(core.ArriveProfiler); ok {
				if ops, phases := prof.HotspotOps(); phases > 0 {
					v := float64(ops) / float64(phases)
					hotspotPerPhase = &v
				}
			}
			if *jsonOut {
				s := b.StatsSnapshot()
				records = append(records, record{
					Impl: name, Split: true, Procs: *procs, Episodes: *episodes,
					MaxProcs: runtime.GOMAXPROCS(0),
					Work:     *work, Region: *region,
					TotalNs: d.Nanoseconds(), NsPerEp: d.Nanoseconds() / int64(*episodes),
					HotspotOps: hotspotPerPhase,
					Stats: &splitStats{
						Syncs: s.Syncs, Arrivals: s.Arrivals,
						FastWaits: s.FastWaits, SpinWaits: s.SpinWaits,
						LockWaits: s.LockWaits, Blocks: s.Blocks, SpinIters: s.SpinIters,
						BlockRate: s.BlockRate(),
					},
				})
				continue
			}
			hotspot := ""
			if hotspotPerPhase != nil {
				hotspot = fmt.Sprintf(" hotspot-ops/phase=%.1f", *hotspotPerPhase)
			}
			fmt.Printf("%-16s procs=%-3d episodes=%-8d region=%-4d total=%-12v per-episode=%v%s\n",
				name+"(split)", *procs, *episodes, *region, d, d/time.Duration(*episodes), hotspot)
			if *stats {
				fmt.Printf("%-16s %s\n", "", b.StatsSnapshot())
			}
			continue
		}
		d, err := measurePoint(name, *procs, *episodes)
		if err != nil {
			die(err)
		}
		if *jsonOut {
			records = append(records, record{
				Impl: name, Procs: *procs, Episodes: *episodes,
				MaxProcs: runtime.GOMAXPROCS(0),
				TotalNs:  d.Nanoseconds(), NsPerEp: d.Nanoseconds() / int64(*episodes),
			})
			continue
		}
		fmt.Printf("%-16s procs=%-3d episodes=%-8d total=%-12v per-episode=%v\n",
			name, *procs, *episodes, d, d/time.Duration(*episodes))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			die(err)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "barbench: %v\n", err)
		os.Exit(1)
	}
}
