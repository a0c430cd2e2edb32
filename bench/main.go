// Command bench is the repository's benchmark: eight workloads over the
// runtime barriers (internal/core), the barrierd service on its three
// transports, and the two simulators, each measured end to end with
// tracing off and, on request, layer by layer in a separate traced
// pass. BENCHMARK.json at the repository root declares the workloads
// and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh -seed 1                  every workload, untraced
//	bash bench/run.sh -seed 1 -trace 1         plus the traced pass and span files
//	bash bench/run.sh -workload rt-spin -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -out new.json ...        also append the runs to new.json
//	bash bench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// environment is recorded in every output.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

// runRecord is one run of one workload, as kept in an -out file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Sizes     map[string]any     `json:"sizes"`
	Trials    int                `json:"trials"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// contractMetric and contractLine are the last line of standard output.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

func main() {
	workloadF := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "seconds of measured work per workload")
	traceF := flag.Int("trace", 0, "1 = also run the traced pass; print per-layer metrics and write span files")
	out := flag.String("out", "", "append each run's full record to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fatalf("bad arguments (see -h)")
	}

	// Load rule: GOMAXPROCS = min(nproc, 4). A one-core number is what
	// this benchmark exists to replace, so it is an error, not a skip.
	procs := min(runtime.NumCPU(), 4)
	if procs < 2 {
		fatalf("GOMAXPROCS would be %d: the benchmark needs at least 2 CPUs", procs)
	}
	runtime.GOMAXPROCS(procs)
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), Commit: gitCommit(),
	}

	if *workloadF == "all" {
		os.Exit(runAll(*seed, *seconds, *traceF, *out))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *workloadF {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *workloadF)
	}
	p := params{seed: *seed, seconds: float64(*seconds), traced: *traceF == 1, procs: procs}
	if p.traced {
		p.spanDir = spanDir()
	}
	res, err := w.run(p)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rec := newRecord(w.name, p, env, *seconds, res)
	printRecord(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := contract(rec)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(buf))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// spanDir is where span files go: out/ beside this package's sources
// when run from the repository root, else ./out.
func spanDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// gitCommit reads the revision the toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newRecord(name string, p params, env environment, seconds int, res *result) runRecord {
	return runRecord{
		Workload: name, Seed: p.seed, Seconds: seconds, Traced: p.traced, Env: env,
		Sizes: res.sizes, Trials: res.trials,
		Correct:   res.failed == 0 && len(res.problems) == 0 && res.attempted > 0,
		Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
		EndToEnd: res.e2e.summarize(), PerLayer: res.layer.summarize(),
	}
}

// contract builds the last output line: every end-to-end metric
// (untraced) or every per-layer metric (traced; one that does not apply
// to this workload's family reads 0).
func contract(rec runRecord) (contractLine, error) {
	line := contractLine{
		Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]contractMetric{},
	}
	if !rec.Traced {
		for _, d := range endToEnd {
			s, ok := rec.EndToEnd[d.Name]
			if !ok || s.Value == 0 {
				return line, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			line.Metrics[d.Name] = contractMetric{s.Value, d.Unit}
		}
		return line, nil
	}
	for _, d := range perLayer {
		line.Metrics[d.Name] = contractMetric{rec.PerLayer[d.Name].Value, d.Unit}
	}
	for name := range rec.PerLayer {
		if unitOf(name) == "" {
			return line, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return line, nil
}

// printRecord prints every metric by name, with its unit, quartiles and
// sample count.
func printRecord(rec runRecord) {
	fmt.Printf("== %s  seed=%d seconds=%d traced=%v trials=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Trials)
	fmt.Printf("   env: nproc=%d GOMAXPROCS=%d %s commit=%s\n", rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit)
	sizes, _ := json.Marshal(rec.Sizes)
	fmt.Printf("   sizes: %s\n", sizes)
	fmt.Printf("   checks: correct=%v attempted=%d failed=%d\n", rec.Correct, rec.Attempted, rec.Failed)
	for _, pr := range rec.Problems {
		fmt.Printf("   PROBLEM: %s\n", pr)
	}
	row := func(name string, s summary) {
		fmt.Printf("   %-42s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, d := range endToEnd {
		if s, ok := rec.EndToEnd[d.Name]; ok {
			row(d.Name, s)
		}
	}
	for _, d := range perLayer {
		if s, ok := rec.PerLayer[d.Name]; ok {
			row(d.Name, s)
		}
	}
}

// appendRecord adds rec to the JSON array in path, creating it.
func appendRecord(path string, rec runRecord) error {
	var recs []runRecord
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &recs); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	buf, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAll runs every workload, each in a fresh process so that one
// workload's heap is not the next one's heap_peak_mb, and prints a
// combined last line keyed workload/metric.
func runAll(seed uint64, seconds, traced int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	combined := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced),
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var line contractLine
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
			fmt.Printf("   PROBLEM: %s printed no result (%v)\n", w.name, err)
			combined.Correct = false
			continue
		}
		combined.Correct = combined.Correct && line.Correct
		combined.Attempted += line.Attempted
		combined.Failed += line.Failed
		names := make([]string, 0, len(line.Metrics))
		for name := range line.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			combined.Metrics[w.name+"/"+name] = line.Metrics[name]
		}
	}
	buf, err := json.Marshal(combined)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(buf))
	if !combined.Correct {
		return 1
	}
	return 0
}
