package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// Run is RunProgress without a completion hook.
func Run[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return RunProgress(workers, n, nil, fn)
}

func TestRunIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Run(workers, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunZeroCells(t *testing.T) {
	out, err := Run(4, 0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("got (%v, %v), want empty", out, err)
	}
}

func TestRunDeterministicError(t *testing.T) {
	// Whatever the interleaving, the reported error is the
	// lowest-index failure.
	errLow := errors.New("cell 3 failed")
	for trial := 0; trial < 20; trial++ {
		_, err := Run(8, 16, func(i int) (int, error) {
			if i == 3 {
				return 0, errLow
			}
			if i >= 10 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want cell 3's error", trial, err)
		}
	}
}

func TestRunAllCellsExecute(t *testing.T) {
	var ran atomic.Int64
	out, err := Run(4, 100, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 || len(out) != 100 {
		t.Fatalf("ran %d cells, want 100", ran.Load())
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "cell 5") || !strings.Contains(s, "boom") {
			t.Fatalf("panic value %q lost the cell context", s)
		}
	}()
	Run(4, 10, func(i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
}

// TestRunErrorBeatsLaterPanic: failures are ranked by cell index, so a
// lower-index error outranks a higher-index panic — a serial loop would
// have stopped at the error before ever reaching the panicking cell.
func TestRunErrorBeatsLaterPanic(t *testing.T) {
	errLow := errors.New("cell 2 failed")
	for trial := 0; trial < 20; trial++ {
		_, err := Run(8, 16, func(i int) (int, error) {
			if i == 2 {
				return 0, errLow
			}
			if i == 11 {
				panic("late cell panicked after an earlier cell errored")
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want cell 2's error (not the cell 11 panic)", trial, err)
		}
	}
}

// TestRunPanicBeatsLaterError: the converse ranking — a lower-index
// panic outranks a higher-index error.
func TestRunPanicBeatsLaterError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cell 2's panic did not propagate")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "cell 2") {
			t.Fatalf("panic value %q lost the cell context", s)
		}
	}()
	Run(8, 16, func(i int) (int, error) {
		if i == 2 {
			panic("early cell panicked")
		}
		if i == 11 {
			return 0, errors.New("late cell errored")
		}
		return i, nil
	})
}

// TestRunWorkerNormalization: Workers(0)/negative select GOMAXPROCS,
// and a workers request larger than n clamps to n — every cell still
// runs exactly once and lands at its own index.
func TestRunWorkerNormalization(t *testing.T) {
	for _, workers := range []int{0, -3, 64} {
		var ran atomic.Int64
		out, err := Run(workers, 5, func(i int) (int, error) {
			ran.Add(1)
			return i + 1, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 5 {
			t.Fatalf("workers=%d: ran %d cells, want 5", workers, ran.Load())
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i+1)
			}
		}
	}
}

// TestRunSerialMatchesParallel: the workers==1 fast path and the pool
// agree on the lowest-index-failure contract.
func TestRunSerialMatchesParallel(t *testing.T) {
	errLow := errors.New("cell 1 failed")
	for _, workers := range []int{1, 8} {
		_, err := Run(workers, 4, func(i int) (int, error) {
			if i == 1 {
				return 0, errLow
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want cell 1's error", workers, err)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive should select GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Error("positive passes through")
	}
}

// TestRunProgress pins the hook contract at both worker counts:
// serialized calls, totals always n, counts strictly 1..n, and results
// identical to a hookless Run.
func TestRunProgress(t *testing.T) {
	const n = 23
	for _, workers := range []int{1, 4} {
		var calls []int
		out, err := RunProgress(workers, n, func(done, total int) {
			if total != n {
				t.Errorf("workers=%d: progress total = %d, want %d", workers, total, n)
			}
			calls = append(calls, done) // serialized by contract; -race would catch a violation
		}, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if len(calls) != n {
			t.Fatalf("workers=%d: progress called %d times, want %d", workers, len(calls), n)
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("workers=%d: progress counts not 1..n: %v", workers, calls)
			}
		}
	}
}
