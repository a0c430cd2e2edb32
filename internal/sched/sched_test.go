package sched

import (
	"testing"
	"testing/quick"
)

// coversAll checks that an assignment partitions [0, n) exactly.
func coversAll(t *testing.T, a Assignment, n int, label string) {
	t.Helper()
	seen := make([]int, n)
	for _, its := range a {
		for _, i := range its {
			if i < 0 || i >= n {
				t.Fatalf("%s: iteration %d out of range [0,%d)", label, i, n)
			}
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s: iteration %d assigned %d times", label, i, c)
		}
	}
}

func TestBlockAssignment(t *testing.T) {
	a := Block(10, 3)
	coversAll(t, a, 10, "block")
	if got := a.Counts(); got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Errorf("counts = %v, want [4 3 3]", got)
	}
	if a.MaxCount() != 4 {
		t.Errorf("max = %d, want 4", a.MaxCount())
	}
	// Blocks must be contiguous.
	for p, its := range a {
		for k := 1; k < len(its); k++ {
			if its[k] != its[k-1]+1 {
				t.Errorf("block %d not contiguous: %v", p, its)
			}
		}
	}
}

// TestBlockBalanced is the regression test for the idle-processor bug:
// ceil-chunking Block(9, 8) produced [2 2 2 2 1 0 0 0], idling three
// processors. The balanced split keeps every processor busy and the
// per-processor counts within 1 of each other.
func TestBlockBalanced(t *testing.T) {
	a := Block(9, 8)
	coversAll(t, a, 9, "block-9x8")
	want := []int{2, 1, 1, 1, 1, 1, 1, 1}
	for p, w := range want {
		if len(a[p]) != w {
			t.Fatalf("counts = %v, want %v", a.Counts(), want)
		}
	}
	// Property: for any n, procs the spread is at most one iteration.
	for n := 0; n <= 40; n++ {
		for procs := 1; procs <= 12; procs++ {
			counts := Block(n, procs).Counts()
			min, max := counts[0], counts[0]
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Fatalf("Block(%d,%d): counts %v spread %d > 1", n, procs, counts, max-min)
			}
		}
	}
}

// TestDegenerateProcs is the regression test for the divide-by-zero
// panic: a round-robin deal over 0 processors crashed with n > 0, and
// every generator panicked in make() for negative procs. Each must return
// an empty Assignment instead.
func TestDegenerateProcs(t *testing.T) {
	for _, procs := range []int{0, -1} {
		for _, gen := range []struct {
			name string
			f    func() Assignment
		}{
			{"block", func() Assignment { return Block(5, procs) }},
			{"rotating", func() Assignment { return Rotating(5, procs, 2) }},
		} {
			a := gen.f()
			if len(a) != 0 || a.MaxCount() != 0 {
				t.Errorf("%s(5, %d) = %v, want empty", gen.name, procs, a)
			}
		}
	}
}

func TestRotatingEqualizesOverRounds(t *testing.T) {
	// Figure 11: 5 iterations on 3 processors. Fixed schedules leave a
	// permanent imbalance; rotating equalizes every 3 rounds.
	fixed := func(round int) Assignment { return Block(5, 3) }
	rot := func(round int) Assignment { return Rotating(5, 3, round) }
	if got := ImbalanceOver(fixed, 6); got == 0 {
		t.Error("fixed schedule should be imbalanced")
	}
	if got := ImbalanceOver(rot, 6); got != 0 {
		t.Errorf("rotating imbalance over 6 rounds = %d, want 0", got)
	}
	// Partial cycles: imbalance at most 1 iteration difference... at most
	// the per-round remainder.
	if got := ImbalanceOver(rot, 4); got > 2 {
		t.Errorf("rotating imbalance over 4 rounds = %d, want <= 2", got)
	}
	for r := 0; r < 5; r++ {
		coversAll(t, Rotating(5, 3, r), 5, "rotating")
	}
}

func TestRotatingNegativeRound(t *testing.T) {
	coversAll(t, Rotating(5, 3, -4), 5, "rotating-neg")
}

func TestEdgeCases(t *testing.T) {
	if a := Block(0, 3); a.MaxCount() != 0 {
		t.Error("empty block schedule should assign nothing")
	}
	if a := Rotating(3, 5, 0); a.MaxCount() != 1 {
		t.Error("more procs than iterations: max 1 each")
	}
	coversAll(t, Block(1, 1), 1, "1x1")
}

// TestStaticSchedulesProperty: both static schedules partition the
// iteration space for arbitrary (n, procs, round).
func TestStaticSchedulesProperty(t *testing.T) {
	f := func(n8, p8, r8 uint8) bool {
		n := int(n8 % 50)
		procs := int(p8%8) + 1
		round := int(r8)
		for _, a := range []Assignment{Block(n, procs), Rotating(n, procs, round)} {
			seen := make([]int, n)
			for _, its := range a {
				for _, i := range its {
					if i < 0 || i >= n {
						return false
					}
					seen[i]++
				}
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Counts returns the per-processor iteration counts.
func (a Assignment) Counts() []int {
	out := make([]int, len(a))
	for p, its := range a {
		out[p] = len(its)
	}
	return out
}

// MaxCount returns the largest per-processor count — the round's critical
// path when iterations cost equal work.
func (a Assignment) MaxCount() int {
	m := 0
	for _, its := range a {
		if len(its) > m {
			m = len(its)
		}
	}
	return m
}
