// The golden record of what the deterministic programs print: one
// SHA-256 per invocation, over its stdout, its stderr and its exit status,
// kept in testdata/golden.sum. A change that moves any byte of any of them
// fails here, naming the invocation.
package fuzzybarrier_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.sum from the programs' current outputs")

const goldenSum = "testdata/golden.sum"

// goldenInvocations lists the pinned invocations, each a tool of cmd/ and
// its arguments: every experiment table, a multi-seed cluster sweep, the
// machine simulator on each sample .s program and the compiler on each
// sample .loop program. Each prints the same bytes on every run and at any
// GOMAXPROCS.
func goldenInvocations(t *testing.T) [][]string {
	t.Helper()
	runs := [][]string{
		{"experiments", "-parallel", "2"},
		{"clustersim", "-seeds", "4", "-parallel", "2"},
	}
	for _, c := range []struct {
		glob string
		args []string
	}{
		{"*.s", []string{"fuzzsim", "-procs", "4"}},
		{"*.loop", []string{"fuzzcc", "-procs", "4", "-show", "stats", "-run"}},
	} {
		files, err := filepath.Glob(filepath.Join(programsDir, c.glob))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s programs in %s: %v", c.glob, programsDir, err)
		}
		for _, f := range files {
			runs = append(runs, append(slices.Clone(c.args), filepath.ToSlash(f)))
		}
	}
	return runs
}

// TestGoldenOutputs runs each golden invocation and compares the hash of
// what it printed with testdata/golden.sum. On a mismatch it names the
// invocation and writes the new output to a temp file to diff against the
// parent's. Only -update-golden rewrites the file:
//
//	go test -run TestGoldenOutputs -update-golden .
func TestGoldenOutputs(t *testing.T) {
	dir := buildTools(t)
	want := map[string]string{} // invocation -> hex hash
	if data, err := os.ReadFile(goldenSum); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			sum, inv, ok := strings.Cut(line, "  ")
			if !ok {
				t.Fatalf("%s: malformed line %q", goldenSum, line)
			}
			want[inv] = sum
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	var record strings.Builder
	for _, args := range goldenInvocations(t) {
		inv := strings.Join(args, " ")
		out := goldenOutput(t, dir, args)
		sum := fmt.Sprintf("%x", sha256.Sum256(out))
		fmt.Fprintf(&record, "%s  %s\n", sum, inv)
		t.Logf("%s  %s", sum, inv)
		old, pinned := want[inv]
		delete(want, inv)
		switch {
		case *updateGolden:
		case !pinned:
			t.Errorf("%s: not in %s; run with -update-golden to pin it", inv, goldenSum)
		case sum != old:
			f, err := os.CreateTemp("", "golden-*.out")
			if err != nil {
				t.Fatal(err)
			}
			f.Write(out)
			f.Close()
			t.Errorf("%s: output moved (sha256 %s, pinned %s); it is in %s", inv, sum, old, f.Name())
		}
	}
	for _, inv := range sortedKeys(want) {
		if !*updateGolden {
			t.Errorf("%s is pinned in %s but no longer run: drop its line", inv, goldenSum)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenSum, []byte(record.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenOutput runs one invocation from the repository root and returns
// its stdout, its stderr and its exit status, each under a header.
func goldenOutput(t *testing.T, dir string, args []string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, args[0]), args[1:]...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "-- stdout --\n%s-- stderr --\n%s-- exit %d --\n", stdout.Bytes(), stderr.Bytes(), cmd.ProcessState.ExitCode())
	return out.Bytes()
}
