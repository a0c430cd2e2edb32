// Command clustersim runs the message-passing fuzzy barriers of
// internal/cluster over a simulated lossy network and reports per-node
// stall, message traffic, and recovery work.
//
// Usage:
//
//	clustersim                                  # all protocols, defaults
//	clustersim -proto tree -nodes 16 -drop 0.1
//	clustersim -proto dissemination -jitter 40 -log
//	clustersim -proto central -drop 1 ; echo $?  # watchdog demo, exits 1
//
// Flags:
//
//	-proto P        protocol: central, tree, dissemination (default: all)
//	-nodes N        cluster size (default 8)
//	-epochs N       barrier episodes per node (default 50)
//	-work N         non-barrier work ticks per epoch (default 400)
//	-work-jitter N  extra uniform work draw in [0,N] (default 100)
//	-region N       barrier-region ticks between Arrive and Wait (default 150)
//	-latency N      base one-way link latency, ticks (default 20)
//	-jitter N       extra uniform link latency in [0,N]; causes reordering
//	-drop P         per-transmission loss probability (default 0)
//	-dup P          per-transmission duplication probability (default 0)
//	-straggler ID   node that runs late every epoch (with -straggle)
//	-straggle N     extra work ticks for the straggler (default 0 = off)
//	-arity K        combining-tree fanout (default 2)
//	-seed S         RNG seed; same seed => byte-identical run (default 1)
//	-seeds K        replay K consecutive seeds S..S+K-1 per protocol (default 1)
//	-parallel N     workers for the (protocol, seed) sweep; 0 = GOMAXPROCS
//	-shards N       N > 1 runs each simulation on the sharded engine (N
//	                lookahead-window lanes); 0 or 1 the serial engine
//	                (default); output is byte-identical
//	-progress       report seed-replay progress on stderr
//	-log            print the full message-level event log
//	-trace-out FILE write a Chrome trace-event JSON (chrome://tracing, Perfetto)
//	-cpuprofile F   write a pprof CPU profile (also -memprofile,
//	                -mutexprofile, -blockprofile)
//
// Every run is deterministic and replayable. Each (protocol, seed) cell
// is one solo run on the -parallel worker pool, whatever the other
// flags, and the output is identical at any -parallel. Multi-seed output
// carries a per-seed transcript hash, and with -shards N > 1 every seed is
// re-run on the serial engine and the hashes compared — any divergence
// fails the run immediately. A run the watchdog declares stuck prints
// the per-node diagnosis and exits nonzero.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/prof"
	"fuzzybarrier/internal/sweep"
	"fuzzybarrier/internal/trace"
)

func main() {
	proto := flag.String("proto", "", "protocol: central, tree, dissemination (default: all)")
	nodes := flag.Int("nodes", 8, "cluster size")
	epochs := flag.Int("epochs", 50, "barrier episodes per node")
	work := flag.Int64("work", 400, "non-barrier work ticks per epoch")
	workJitter := flag.Int64("work-jitter", 100, "extra uniform work draw in [0,N]")
	region := flag.Int64("region", 150, "barrier-region ticks between Arrive and Wait")
	latency := flag.Int64("latency", 20, "base one-way link latency, ticks")
	jitter := flag.Int64("jitter", 0, "extra uniform link latency in [0,N]")
	drop := flag.Float64("drop", 0, "per-transmission loss probability")
	dup := flag.Float64("dup", 0, "per-transmission duplication probability")
	straggler := flag.Int("straggler", 0, "node that runs late every epoch")
	straggle := flag.Int64("straggle", 0, "extra work ticks for the straggler (0 = off)")
	arity := flag.Int("arity", 2, "combining-tree fanout")
	seed := flag.Uint64("seed", 1, "RNG seed; same seed => byte-identical run")
	seeds := flag.Int("seeds", 1, "replay this many consecutive seeds per protocol")
	parallel := flag.Int("parallel", 0, "workers for the (protocol, seed) sweep; 0 = GOMAXPROCS")
	shards := flag.Int("shards", 0, "N > 1 runs the sharded engine on N lanes; 0 or 1 the serial engine")
	progress := flag.Bool("progress", false, "report seed-replay progress on stderr")
	logEvents := flag.Bool("log", false, "print the message-level event log")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file")
	startProf := prof.Flags()
	flag.Parse()

	protos := cluster.Protocols()
	if *proto != "" {
		protos = []string{*proto}
	}
	if *seeds < 1 {
		fatal(fmt.Errorf("-seeds wants a positive count, got %d", *seeds))
	}
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel wants a worker count >= 0, got %d", *parallel))
	}
	if *traceOut != "" && (len(protos) != 1 || *seeds != 1) {
		fatal(fmt.Errorf("-trace-out wants a single -proto and -seeds 1, got %d protocols x %d seeds", len(protos), *seeds))
	}
	if *logEvents && *seeds != 1 {
		fatal(fmt.Errorf("-log wants -seeds 1, got %d seeds", *seeds))
	}
	sharded := *shards > 1
	if sharded && *traceOut != "" {
		fatal(fmt.Errorf("-shards %d cannot record a chrome trace; drop -shards", *shards))
	}

	stopProf, err := startProf()
	if err != nil {
		fatal(err)
	}

	baseConfig := func(p string, s uint64) cluster.Config {
		return cluster.Config{
			Protocol:   p,
			Nodes:      *nodes,
			Epochs:     *epochs,
			Work:       *work,
			WorkJitter: *workJitter,
			Region:     *region,
			Straggler:  *straggler, StraggleExtra: *straggle,
			Net: cluster.NetConfig{
				Latency: *latency, Jitter: *jitter,
				DropRate: *drop, DupRate: *dup,
			},
			TreeArity: *arity,
			Seed:      s,
			LogEvents: *logEvents,
			Shards:    *shards,
		}
	}
	var progressHook func(done, total int)
	if *progress {
		progressHook = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rseeds %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// Each (protocol, seed) cell is an independent replay on the sweep
	// worker pool; output is buffered per cell and printed in index
	// order, so the transcript is identical at any -parallel.
	type cellOut struct {
		text   string
		runErr error // a stuck run: reported after the pool drains, in cell order
	}
	// checkSerial re-runs one sharded cell on the serial engine and
	// fails fast on any transcript divergence, so equivalence
	// regressions surface outside the test suite too.
	checkSerial := func(p string, s uint64, parT string) error {
		cfg := baseConfig(p, s)
		cfg.Shards = 1
		sim, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		serRes, _ := sim.Run()
		if serT := renderTranscript(serRes, sim.EventLog()); parT != serT {
			return fmt.Errorf("%s seed %d: parallel engine diverges from serial (parallel transcript=%016x, serial=%016x)",
				p, s, transcriptHash(parT), transcriptHash(serT))
		}
		return nil
	}

	cells, err := sweep.RunProgress(*parallel, len(protos)**seeds, progressHook, func(i int) (cellOut, error) {
		p := protos[i / *seeds]
		s := *seed + uint64(i%*seeds)
		cfg := baseConfig(p, s)
		if *traceOut != "" {
			cfg.Recorder = trace.NewRecorder(*nodes)
		}
		sim, err := cluster.New(cfg)
		if err != nil {
			return cellOut{}, err
		}
		res, runErr := sim.Run()
		transcript := renderTranscript(res, sim.EventLog())
		out := cellOut{text: transcript, runErr: runErr}
		if *seeds > 1 {
			// The transcript hash makes engine-equivalence regressions
			// visible outside the test suite: identical runs hash
			// identically at any -shards and any -parallel worker
			// count.
			out.text = fmt.Sprintf("seed %d: transcript=%016x\n", s, transcriptHash(transcript)) + transcript
		}
		if sharded {
			if err := checkSerial(p, s, transcript); err != nil {
				return cellOut{}, err
			}
		}
		if rec := cfg.Recorder; rec != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				return cellOut{}, err
			}
			if err := rec.WriteChrome(f); err != nil {
				f.Close()
				return cellOut{}, err
			}
			if err := f.Close(); err != nil {
				return cellOut{}, err
			}
			out.text += fmt.Sprintf("chrome trace: %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
		}
		return out, nil
	})
	if err != nil {
		stopProf()
		fatal(err)
	}
	exit := 0
	for _, c := range cells {
		if c.runErr != nil {
			fmt.Fprintf(os.Stderr, "clustersim: %v\n", c.runErr)
			exit = 1
		}
	}
	for _, c := range cells {
		fmt.Print(c.text)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		if exit == 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}

// renderTranscript renders one run's deterministic transcript: the
// event log (when enabled), the Result line, and the per-node stall
// table. Identical runs — either engine, any worker count — render
// byte-identical transcripts.
func renderTranscript(res *cluster.Result, log []string) string {
	var b strings.Builder
	for _, line := range log {
		fmt.Fprintln(&b, line)
	}
	fmt.Fprintln(&b, res)
	for n, st := range res.PerNodeStall {
		fmt.Fprintf(&b, "  node %-3d stall=%-8d (%.1f/epoch)\n", n, st, float64(st)/maxF(1, float64(res.Epochs)))
	}
	return b.String()
}

// transcriptHash is the per-seed divergence fingerprint (FNV-1a).
func transcriptHash(transcript string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(transcript))
	return h.Sum64()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
	os.Exit(1)
}
