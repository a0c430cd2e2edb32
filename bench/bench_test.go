package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

func tinyParams(t *testing.T, traced bool) params {
	p := params{seed: 1, seconds: 1, traced: traced, procs: max(2, min(runtime.NumCPU(), 4)), tiny: true}
	if traced {
		p.spanDir = t.TempDir()
	}
	return p
}

// TestWorkloadsSmoke runs every workload once at tiny sizes, untraced
// and traced: the output checks pass, the six barrierd.seg_* segments
// telescope to the traced epoch latency (a workload reports a problem
// when they do not), a span file is written, and both forms of the
// result line can be built.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := tinyParams(t, true)
			res, err := w.run(p)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecord(w.name, p, environment{}, 1, res)
			if !rec.Correct {
				t.Fatalf("attempted=%d failed=%d problems=%v", rec.Attempted, rec.Failed, rec.Problems)
			}
			line, err := contract(rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			rec.Traced = false
			if _, err := contract(rec); err != nil {
				t.Error(err)
			}
			if _, err := os.Stat(filepath.Join(p.spanDir, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
			if len(rec.PerLayer["barrierd.traced_epoch_ms"].Unit) > 0 && rec.PerLayer["barrierd.traced_epoch_ms"].Value <= 0 {
				t.Error("traced epoch latency is not positive")
			}
		})
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []nameWhy  `json:"workloads"`
	EndToEnd   []e2eDef   `json:"end_to_end"`
	PerLayer   []layerDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json as this package declares it.
func manifest() benchmarkFile {
	m := benchmarkFile{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, nameWhy{w.name, w.why})
	}
	return m
}

// TestBenchmarkJSON pins BENCHMARK.json to the names, units, directions
// and bounds this package emits. BENCH_WRITE_MANIFEST=1 rewrites the
// file from the package instead.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := manifest()
	if os.Getenv("BENCH_WRITE_MANIFEST") == "1" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the package's metric and workload tables\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range want.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range want.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", d.Bound, d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range want.PerLayer {
		check(d.Name, d.Unit)
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 || len(want.Workloads) > 8 || len(buf) > 64<<10 {
		t.Error("BENCHMARK.json exceeds a size limit of the contract")
	}
}

// TestTapLeavesSimNetUnchanged runs the same seeded sim-svc twice, with
// and without tapNet around the SimNet: every connection must observe
// the same releases at the same ticks, and the network must count the
// same transmissions.
func TestTapLeavesSimNetUnchanged(t *testing.T) {
	spec := simSvcSpec{conns: 6, groups: 5, clientsPer: 3, epochs: 6}
	plain, err := runSimSvcOnce(spec, 42, false, false)
	if err != nil {
		t.Fatal(err)
	}
	tapped, err := runSimSvcOnce(spec, 42, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.releases) != spec.conns*spec.groups*int(spec.epochs) {
		t.Fatalf("%d releases observed", len(plain.releases))
	}
	if !reflect.DeepEqual(plain.releases, tapped.releases) {
		t.Error("release sequence differs with the tap on")
	}
	if plain.counters != tapped.counters || plain.steps != tapped.steps {
		t.Errorf("counters %v steps %d without the tap, %v and %d with it",
			plain.counters, plain.steps, tapped.counters, tapped.steps)
	}
	if tapped.tap.totals().sent[0] == 0 {
		t.Error("the tap saw no acks: it was not in the path")
	}
}

// TestSegmentsClamp feeds segments milestones that are missing, out of
// order and past T6: the segments stay non-negative and sum to T6-T0.
func TestSegmentsClamp(t *testing.T) {
	tap := newTapNet(nil, 4, nil, false)
	te := &tapEndpoint{}
	for i := range te.marks {
		te.marks[i] = map[epochKey]int64{}
	}
	tap.eps = []*tapEndpoint{te}
	k := epochKey{1, 0}
	te.marks[markIngressDone][k] = 50  // before T1
	te.marks[markReleaseSent][k] = 400 // home start missing
	te.marks[markConnDeliver][k] = 900 // after T6
	sums, total, ok := tap.segments([]epochRec{{key: k, t0: 100, t1: 120, t6: 500}}, nil)
	if !ok || total != 400 {
		t.Fatalf("total %d ok %v", total, ok)
	}
	if want := [6]int64{20, 0, 0, 280, 100, 0}; sums != want {
		t.Errorf("segments %v, want %v", sums, want)
	}
}

// TestCompareVerdicts checks -compare's exit code: a median worse by
// more than the bound, or a higher fail_ratio, is a regression.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, syncUs, failRatio float64) string {
		rec := runRecord{
			Workload: "rt-spin",
			EndToEnd: map[string]summary{"sync_us": {Value: syncUs, Q1: syncUs * 0.99, Q3: syncUs * 1.01, N: 5}},
			PerLayer: map[string]summary{"fail_ratio": {Value: failRatio, N: 1}},
		}
		path := filepath.Join(dir, name)
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.0, 0)
	if code := compareFiles(base, write("same.json", 1.05, 0)); code != 0 {
		t.Errorf("5%% slower, within the bound: exit %d", code)
	}
	if code := compareFiles(base, write("slow.json", 1.4, 0)); code != 1 {
		t.Errorf("40%% slower: exit %d", code)
	}
	if code := compareFiles(base, write("fail.json", 1.0, 0.01)); code != 1 {
		t.Errorf("higher fail_ratio: exit %d", code)
	}
}
