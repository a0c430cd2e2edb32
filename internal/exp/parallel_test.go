package exp

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestParallelDeterminism checks the sweep-engine contract at the table
// level: every experiment renders byte-identically whether its cells run
// serially or on a worker pool. The sweep-heavy experiments (E1, E2,
// E10, E12, E13, E15) are the interesting ones, but running the whole
// suite is cheap and also guards future refactors.
func TestParallelDeterminism(t *testing.T) {
	defer SetParallelism(0)
	for _, e := range All() {
		SetParallelism(1)
		serial, err := e.Run()
		if err != nil {
			t.Fatalf("%s (serial): %v", e.ID, err)
		}
		SetParallelism(4)
		pooled, err := e.Run()
		if err != nil {
			t.Fatalf("%s (parallel): %v", e.ID, err)
		}
		if serial.String() != pooled.String() {
			t.Errorf("%s: table differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				e.ID, serial, pooled)
		}
	}
}

// TestSweepParallelSpeedupGate is the CI regression gate for the sweep
// worker pool: the full E15 grid at 4 workers must beat 1 worker by
// more than 1.2x wall clock. Like the other gates it only runs when
// BENCH_GATE=1, and it additionally skips on single-core hosts — with
// GOMAXPROCS=1 the pool cannot buy wall-clock time, so a ~1.0 ratio
// there is expected, not a regression.
func TestSweepParallelSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to run the wall-clock speedup gate")
	}
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("GOMAXPROCS=1: parallel sweep cannot gain wall clock on one core")
	}
	defer SetParallelism(0)
	const reps = 3
	run := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			SetParallelism(workers)
			start := time.Now()
			if _, err := E15ClusterSync(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	before, after := run(1), run(4)
	ratio := float64(before) / float64(after)
	t.Logf("E15 sweep: 1 worker %v, 4 workers %v, speedup %.2fx (maxprocs=%d)",
		before, after, ratio, runtime.GOMAXPROCS(0))
	if ratio < 1.2 {
		t.Fatalf("parallel sweep speedup %.2fx below the 1.2x gate", ratio)
	}
}

// TestSetParallelism checks the knob plumbing.
func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d, want 3", Parallelism())
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("default Parallelism() = %d, want >= 1", Parallelism())
	}
}
