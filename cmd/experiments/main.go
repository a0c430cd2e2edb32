// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	experiments                  # run all experiments, print tables
//	experiments -id E3           # run one experiment
//	experiments -list            # list experiment IDs and titles
//	experiments -csv             # emit CSV instead of fixed-width tables
//	experiments -out DIR         # also write one .txt and .csv per experiment
//	experiments -trace-out FILE  # write a Chrome trace of the drift workload
//	experiments -parallel N      # sweep-cell workers (0 = GOMAXPROCS)
//	experiments -progress        # report sweep-cell progress on stderr
//	experiments -mutexprofile f  # pprof mutex-contention profile (also
//	                             # -cpuprofile, -memprofile, -blockprofile)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fuzzybarrier/internal/exp"
	"fuzzybarrier/internal/prof"
)

func main() {
	ids := exp.IDs()
	id := flag.String("id", "", fmt.Sprintf("run a single experiment (%s..%s)", ids[0], ids[len(ids)-1]))
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.Bool("csv", false, "emit CSV")
	outDir := flag.String("out", "", "also write per-experiment .txt and .csv files to this directory")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the E14 drift workload")
	parallel := flag.Int("parallel", 0, "workers for independent sweep cells; 0 = GOMAXPROCS, 1 = serial (tables are identical either way)")
	progress := flag.Bool("progress", false, "report sweep-cell completion counts on stderr while experiments run")
	startProf := prof.Flags()
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -parallel wants a worker count >= 0, got %d\n", *parallel)
		os.Exit(1)
	}
	exp.SetParallelism(*parallel)
	if *progress {
		exp.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  sweep %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}
	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if *traceOut != "" {
		if err := writeShowcaseTrace(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(1)
		}
		fmt.Printf("chrome trace: %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
		if *id == "" && !*list {
			exit(0)
		}
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		exit(0)
	}

	run := exp.All()
	if *id != "" {
		e, ok := exp.ByID(strings.ToUpper(*id))
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (known: %s)\n", *id, strings.Join(exp.IDs(), " "))
			exit(2)
		}
		run = []exp.Experiment{e}
	}

	failed := 0
	for _, e := range run {
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *csv {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Println(tbl)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				exit(1)
			}
			base := fmt.Sprintf("%s/%s", *outDir, strings.ToLower(e.ID))
			if err := os.WriteFile(base+".txt", []byte(tbl.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				exit(1)
			}
			if err := os.WriteFile(base+".csv", []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				exit(1)
			}
		}
	}
	if failed > 0 {
		exit(1)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// writeShowcaseTrace runs the E14 drift workload with a recorder attached
// and writes its Chrome trace-event export to path.
func writeShowcaseTrace(path string) error {
	rec, err := exp.TracedShowcase()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
