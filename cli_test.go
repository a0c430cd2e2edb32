// End-to-end smoke tests for the command-line tools: build each binary
// once and drive it against the shipped sample inputs, asserting the
// load-bearing output. Skipped under -short (they shell out to the Go
// toolchain).
package fuzzybarrier_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	toolDir   string // the temp dir holding the binaries; TestMain removes it
	buildErr  error
)

// TestMain removes the tool directory once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if toolDir != "" {
		os.RemoveAll(toolDir)
	}
	os.Exit(code)
}

// buildTools compiles all cmd/ binaries into a shared temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI builds")
	}
	buildOnce.Do(func() {
		toolDir, buildErr = os.MkdirTemp("", "fuzzybarrier-cli")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"experiments", "fuzzsim", "fuzzcc", "clustersim", "barrierd", "barrierload"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(toolDir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("%v\n%s", err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return toolDir
}

func runTool(t *testing.T, dir, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIExperimentsList(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "experiments", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"E1", "E9", "E13"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in list:\n%s", want, out)
		}
	}
}

func TestCLIExperimentsSingleAndCSV(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "experiments", "-id", "e3", "-csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "mode,") || !strings.Contains(out, "reorder") {
		t.Errorf("unexpected CSV:\n%s", out)
	}
	out, err = runTool(t, dir, "experiments", "-id", "E99")
	if err == nil {
		t.Errorf("unknown id accepted:\n%s", out)
	}
}

func TestCLIFuzzsimDriftLoop(t *testing.T) {
	dir := buildTools(t)
	src, err := filepath.Abs(filepath.Join(programsDir, "driftloop.s"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, dir, "fuzzsim", "-procs", "2", "-trace", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"cycles:", "syncs=6", "synchronized"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFuzzsimDetectsFig2Deadlock(t *testing.T) {
	dir := buildTools(t)
	a, _ := filepath.Abs(filepath.Join(programsDir, "invalid-fig2.s"))
	b, _ := filepath.Abs(filepath.Join(programsDir, "fig2-partner.s"))
	out, err := runTool(t, dir, "fuzzsim", a, b)
	if err == nil {
		t.Fatalf("expected nonzero exit for deadlock:\n%s", out)
	}
	if !strings.Contains(out, "deadlock") || !strings.Contains(out, "warning") {
		t.Errorf("missing deadlock diagnostics:\n%s", out)
	}
}

func TestCLIFuzzccPipeline(t *testing.T) {
	dir := buildTools(t)
	src, _ := filepath.Abs(filepath.Join(programsDir, "poisson.loop"))
	emitDir := t.TempDir()

	out, err := runTool(t, dir, "fuzzcc", "-procs", "4", "-mode", "reorder",
		"-show", "stats", "-emit", emitDir, src)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "est-cycles") {
		t.Errorf("missing stats output:\n%s", out)
	}
	// The emitted tasks must run on fuzzsim.
	tasks, err := filepath.Glob(filepath.Join(emitDir, "task*.s"))
	if err != nil || len(tasks) != 4 {
		t.Fatalf("emitted tasks: %v, %v", tasks, err)
	}
	out, err = runTool(t, dir, "fuzzsim", tasks...)
	if err != nil {
		t.Fatalf("fuzzsim on emitted tasks: %v\n%s", err, out)
	}
	if !strings.Contains(out, "halted=true") {
		t.Errorf("emitted tasks did not complete:\n%s", out)
	}
}

// TestCLIRefusesInvalidNumbers: a negative count or an empty -peek range
// exits 1 with a message naming the flag, rather than running with the
// default or printing nothing.
func TestCLIRefusesInvalidNumbers(t *testing.T) {
	dir := buildTools(t)
	drift, _ := filepath.Abs(filepath.Join(programsDir, "driftloop.s"))
	loop, _ := filepath.Abs(filepath.Join(programsDir, "poisson.loop"))
	for _, row := range []struct {
		tool, flag string
		args       []string
	}{
		{"fuzzsim", "-procs", []string{"-procs", "-2", drift}},
		{"fuzzsim", "-mem", []string{"-mem", "-5", drift}},
		{"fuzzsim", "-max", []string{"-max", "-5", drift}},
		{"fuzzsim", "-modules", []string{"-modules", "-3", drift}},
		{"fuzzsim", "-miss", []string{"-miss", "-3", drift}},
		{"fuzzsim", "-peek", []string{"-peek", "5,2", drift}},
		{"fuzzcc", "-miss", []string{"-procs", "4", "-run", "-miss", "-3", loop}},
		{"experiments", "-parallel", []string{"-parallel", "-2", "-id", "E1"}},
		{"clustersim", "-parallel", []string{"-parallel", "-2"}},
	} {
		out, err := runTool(t, dir, row.tool, row.args...)
		code := -1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
		if code != 1 || !strings.Contains(out, row.flag) {
			t.Errorf("%s %s: exit %d (%v), want 1 and a message naming %s:\n%s",
				row.tool, strings.Join(row.args, " "), code, err, row.flag, out)
		}
	}
}

func TestCLIFuzzccRunAndDag(t *testing.T) {
	dir := buildTools(t)
	src, _ := filepath.Abs(filepath.Join(programsDir, "fig9.loop"))
	out, err := runTool(t, dir, "fuzzcc", "-procs", "4", "-run", "-miss", "5", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "simulation: cycles=") {
		t.Errorf("missing simulation summary:\n%s", out)
	}
	out, err = runTool(t, dir, "fuzzcc", "-procs", "4", "-show", "dag", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "digraph") {
		t.Errorf("missing dot output:\n%s", out)
	}
}

func TestCLIClustersim(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "clustersim",
		"-proto", "tree", "-nodes", "5", "-epochs", "10",
		"-jitter", "15", "-drop", "0.1", "-dup", "0.05", "-seed", "3", "-log")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"tree nodes=5 epochs=10", "net.send", "net.recv", "node 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Replay: the same seed reproduces the run byte for byte.
	out2, err := runTool(t, dir, "clustersim",
		"-proto", "tree", "-nodes", "5", "-epochs", "10",
		"-jitter", "15", "-drop", "0.1", "-dup", "0.05", "-seed", "3", "-log")
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	if out != out2 {
		t.Error("same seed produced different clustersim output")
	}
	// A fully lossy network must end in a nonzero-exit watchdog report.
	out, err = runTool(t, dir, "clustersim", "-proto", "central", "-nodes", "3", "-epochs", "2", "-drop", "1")
	if err == nil {
		t.Fatalf("expected nonzero exit for stuck run:\n%s", out)
	}
	if !strings.Contains(out, "stuck") || !strings.Contains(out, "node 0") {
		t.Errorf("missing stuck diagnosis:\n%s", out)
	}
	// -drop NaN parses as a float; the config check must refuse it.
	out, err = runTool(t, dir, "clustersim", "-proto", "central", "-nodes", "3", "-epochs", "2", "-drop", "NaN")
	if err == nil || !strings.Contains(out, "outside [0,1]") {
		t.Errorf("-drop NaN: err %v, want the fault-rate refusal:\n%s", err, out)
	}
	// A straggler outside the cluster would inject nothing; refuse it.
	out, err = runTool(t, dir, "clustersim", "-nodes", "4", "-epochs", "2", "-straggler", "99", "-straggle", "500")
	if err == nil || !strings.Contains(out, "straggler 99 outside [0,4)") {
		t.Errorf("-straggler 99: err %v, want the straggler refusal:\n%s", err, out)
	}
}

// TestCLIClustersimShards: -shards alone selects the engine. The sharded
// run prints the serial run's stdout byte for byte (event log included),
// and it really is the sharded engine — which cannot record a chrome
// trace — not a silently ignored flag.
func TestCLIClustersimShards(t *testing.T) {
	dir := buildTools(t)
	args := []string{"-proto", "dissemination", "-nodes", "6", "-epochs", "8",
		"-jitter", "15", "-drop", "0.1", "-dup", "0.05", "-seed", "5", "-log"}
	serial, err := runTool(t, dir, "clustersim", append(args, "-shards", "1")...)
	if err != nil {
		t.Fatalf("%v\n%s", err, serial)
	}
	sharded, err := runTool(t, dir, "clustersim", append(args, "-shards", "4")...)
	if err != nil {
		t.Fatalf("%v\n%s", err, sharded)
	}
	if serial != sharded {
		t.Errorf("-shards changed the output:\n--- -shards 1 ---\n%s\n--- -shards 4 ---\n%s", serial, sharded)
	}
	out, err := runTool(t, dir, "clustersim", append(args, "-shards", "4",
		"-trace-out", filepath.Join(t.TempDir(), "trace.json"))...)
	if err == nil || !strings.Contains(out, "-shards 4 cannot record a chrome trace") {
		t.Errorf("-shards 4 -trace-out: err %v, want the sharded-engine refusal:\n%s", err, out)
	}
}

func TestCLIClustersimSeedSweep(t *testing.T) {
	dir := buildTools(t)
	args := []string{"-proto", "tree", "-nodes", "4", "-epochs", "8", "-jitter", "10", "-seeds", "3"}
	serial, err := runTool(t, dir, "clustersim", append(args, "-parallel", "1")...)
	if err != nil {
		t.Fatalf("%v\n%s", err, serial)
	}
	for _, want := range []string{"seed 1:", "seed 2:", "seed 3:"} {
		if !strings.Contains(serial, want) {
			t.Errorf("missing %q:\n%s", want, serial)
		}
	}
	// The pooled sweep prints the identical transcript in seed order.
	pooled, err := runTool(t, dir, "clustersim", append(args, "-parallel", "4")...)
	if err != nil {
		t.Fatalf("%v\n%s", err, pooled)
	}
	if serial != pooled {
		t.Errorf("-parallel changed the transcript:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, pooled)
	}
}

func TestCLIBarrierdSmoke(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "barrierd", "-shards", "2", "-duration", "300ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"shard 0 listening on", "shard 1 listening on", "barrierd: shards=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// A config the service would not run as given is refused, naming
	// the flag, rather than silently defaulted.
	for _, row := range [][]string{
		{"-shards", "0"},
		{"-radix", "1"},
	} {
		out, err := runTool(t, dir, "barrierd", append(row, "-duration", "1ms")...)
		if err == nil || !strings.Contains(out, row[0]+" must be") {
			t.Errorf("barrierd %s: err %v, want a refusal naming %s:\n%s", strings.Join(row, " "), err, row[0], out)
		}
	}
}

func TestCLIBarrierloadInproc(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "barrierload",
		"-clients", "2000", "-groups", "2", "-conns", "4", "-epochs", "3",
		"-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no JSON object in output:\n%s", out)
	}
	var rep struct {
		Transport string `json:"transport"`
		Clients   int    `json:"clients"`
		MaxProcs  int    `json:"maxprocs"`
		Points    []struct {
			P50Ms   float64 `json:"p50_ms"`
			P99Ms   float64 `json:"p99_ms"`
			Samples int     `json:"samples"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out[i:]), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Transport != "inproc" || rep.Clients != 2000 || rep.MaxProcs < 1 {
		t.Errorf("unexpected report header: %+v", rep)
	}
	if len(rep.Points) != 1 || rep.Points[0].Samples != 6 ||
		rep.Points[0].P50Ms <= 0 || rep.Points[0].P99Ms < rep.Points[0].P50Ms {
		t.Errorf("implausible latency point: %+v", rep.Points)
	}
	// A size below 1 is refused, naming the flag; -epochs 0 would
	// otherwise report an empty run as p50=0.00ms.
	for _, flag := range []string{"-groups", "-conns", "-epochs"} {
		out, err := runTool(t, dir, "barrierload", "-clients", "64", flag, "0")
		if err == nil || !strings.Contains(out, flag+" must be >= 1") {
			t.Errorf("barrierload %s 0: err %v, want a refusal naming %s:\n%s", flag, err, flag, out)
		}
	}
}

// TestCLIJSONWriteFailureExits: a tool whose JSON report cannot be
// written (stdout on /dev/full) must exit non-zero, not report success.
func TestCLIJSONWriteFailureExits(t *testing.T) {
	dir := buildTools(t)
	for _, row := range [][]string{
		{"barrierload", "-clients", "64", "-groups", "1", "-conns", "2", "-epochs", "2", "-json"},
	} {
		full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skipf("no /dev/full: %v", err)
		}
		cmd := exec.Command(filepath.Join(dir, row[0]), row[1:]...)
		cmd.Stdout = full
		err = cmd.Run()
		full.Close()
		if err == nil {
			t.Errorf("%s exited 0 with its JSON report unwritten", strings.Join(row, " "))
		}
	}
}

// TestCLIBarrierloadDrivesExternalBarrierd is the loopback end-to-end:
// a real barrierd process on ephemeral UDP ports, driven by a separate
// barrierload process that connects to the printed addresses.
func TestCLIBarrierloadDrivesExternalBarrierd(t *testing.T) {
	dir := buildTools(t)
	srv := exec.Command(filepath.Join(dir, "barrierd"), "-shards", "2", "-duration", "60s")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	var addrs []string
	sc := bufio.NewScanner(stdout)
	for len(addrs) < 2 && sc.Scan() {
		fields := strings.Fields(sc.Text()) // "shard I listening on ADDR"
		if len(fields) == 5 && fields[0] == "shard" {
			addrs = append(addrs, fields[4])
		}
	}
	if len(addrs) < 2 {
		t.Fatalf("barrierd printed %d listening lines: %v", len(addrs), addrs)
	}
	out, err := runTool(t, dir, "barrierload",
		"-transport", "udp", "-connect", strings.Join(addrs, ","),
		"-clients", "500", "-groups", "2", "-conns", "4", "-epochs", "3")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "transport=udp") || !strings.Contains(out, "p99=") {
		t.Errorf("missing load report:\n%s", out)
	}
}

func TestCLIProfileFlags(t *testing.T) {
	dir := buildTools(t)
	tmp := t.TempDir()
	cpu := filepath.Join(tmp, "cpu.pprof")
	mem := filepath.Join(tmp, "mem.pprof")
	out, err := runTool(t, dir, "experiments", "-id", "E1",
		"-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("empty profile %s", p)
		}
	}
}
