package sched

import (
	"sync"
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

// drain pulls all chunks from a Dynamic scheduler (single-threaded) and
// returns them in order.
func drain(d Dynamic) [][2]int {
	var out [][2]int
	for {
		s, n, ok := d.Next()
		if !ok {
			return out
		}
		out = append(out, [2]int{s, n})
	}
}

func checkChunksPartition(t *testing.T, chunks [][2]int, n int, label string) {
	t.Helper()
	seen := make([]int, n)
	for _, c := range chunks {
		for i := c[0]; i < c[0]+c[1]; i++ {
			if i < 0 || i >= n {
				t.Fatalf("%s: iteration %d out of range", label, i)
			}
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s: iteration %d claimed %d times", label, i, c)
		}
	}
}

func TestSelfSched(t *testing.T) {
	d := NewSelfSched(5)
	chunks := drain(d)
	if len(chunks) != 5 {
		t.Fatalf("chunks = %d, want 5", len(chunks))
	}
	checkChunksPartition(t, chunks, 5, "self")
	d.Reset(3)
	if got := drain(d); len(got) != 3 {
		t.Errorf("after reset: %d chunks, want 3", len(got))
	}
}

func TestChunked(t *testing.T) {
	d, err := NewChunked(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(d)
	if len(chunks) != 3 || chunks[2][1] != 2 {
		t.Fatalf("chunks = %v, want sizes 4,4,2", chunks)
	}
	checkChunksPartition(t, chunks, 10, "chunked")
	if _, err := NewChunked(10, 0); err == nil {
		t.Error("chunk size 0 accepted")
	}
	if d.Name() != "chunk4" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestGSSChunkSizes(t *testing.T) {
	d, err := NewGSS(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(d)
	checkChunksPartition(t, chunks, 100, "gss")
	// First chunk = ceil(100/4) = 25; sizes non-increasing; last = 1.
	if chunks[0][1] != 25 {
		t.Errorf("first chunk = %d, want 25", chunks[0][1])
	}
	for k := 1; k < len(chunks); k++ {
		if chunks[k][1] > chunks[k-1][1] {
			t.Errorf("chunk sizes increased: %v", chunks)
			break
		}
	}
	if last := chunks[len(chunks)-1][1]; last != 1 {
		t.Errorf("last chunk = %d, want 1", last)
	}
	if _, err := NewGSS(10, 0); err == nil {
		t.Error("procs 0 accepted")
	}
}

// TestDynamicSchedulersConcurrent: under concurrent claiming, every
// iteration is claimed exactly once.
func TestDynamicSchedulersConcurrent(t *testing.T) {
	const n = 500
	mks := map[string]func() Dynamic{
		"self":  func() Dynamic { return NewSelfSched(n) },
		"chunk": func() Dynamic { d, _ := NewChunked(n, 7); return d },
		"gss":   func() Dynamic { d, _ := NewGSS(n, 4); return d },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			d := mk()
			var mu sync.Mutex
			seen := make([]int, n)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						s, sz, ok := d.Next()
						if !ok {
							return
						}
						mu.Lock()
						for i := s; i < s+sz; i++ {
							seen[i]++
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("iteration %d claimed %d times", i, c)
				}
			}
		})
	}
}

// TestDynamicPartitionProperty drives random sizes through all dynamic
// schedulers.
func TestDynamicPartitionProperty(t *testing.T) {
	f := func(n8, c8, p8 uint8) bool {
		n := int(n8 % 200)
		chunk := int(c8%9) + 1
		procs := int(p8%7) + 1
		ds := []Dynamic{NewSelfSched(n)}
		if d, err := NewChunked(n, chunk); err == nil {
			ds = append(ds, d)
		}
		if d, err := NewGSS(n, procs); err == nil {
			ds = append(ds, d)
		}
		for _, d := range ds {
			seen := make([]int, n)
			for {
				s, sz, ok := d.Next()
				if !ok {
					break
				}
				if sz <= 0 {
					return false
				}
				for i := s; i < s+sz; i++ {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVersionFor(t *testing.T) {
	cases := []struct {
		idx, size int
		want      Version
	}{
		{0, 1, VersionOnly},
		{0, 3, VersionFirst},
		{1, 3, VersionMiddle},
		{2, 3, VersionLast},
		{0, 2, VersionFirst},
		{1, 2, VersionLast},
	}
	for _, c := range cases {
		if got := VersionFor(c.idx, c.size); got != c.want {
			t.Errorf("VersionFor(%d,%d) = %v, want %v", c.idx, c.size, got, c.want)
		}
	}
	for _, v := range []Version{VersionFirst, VersionLast, VersionMiddle, VersionOnly} {
		if v.String() == "" {
			t.Errorf("version %d has no name", v)
		}
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
