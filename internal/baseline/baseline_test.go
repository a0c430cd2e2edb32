package baseline

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fuzzybarrier/internal/core"
)

// checkBarrier verifies the fundamental barrier property for any
// implementation: between two consecutive Await calls, every participant
// observes that all n participants finished the previous episode. The
// classic detector is a shared counter incremented before the barrier and
// checked after it.
func checkBarrier(t *testing.T, mk func(n int) Barrier, n, episodes int) {
	t.Helper()
	b := mk(n)
	if b.N() != n {
		t.Fatalf("%s: N = %d, want %d", b.Name(), b.N(), n)
	}
	var counter atomic.Int64
	bad := make(chan int64, n*episodes)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for e := int64(0); e < int64(episodes); e++ {
				counter.Add(1)
				b.Await(id)
				if got := counter.Load(); got != int64(n)*(e+1) {
					bad <- got
				}
				b.Await(id) // keep the check window closed
			}
		}(p)
	}
	wg.Wait()
	close(bad)
	for v := range bad {
		t.Fatalf("%s (n=%d): counter = %d between episodes (barrier leaked)", b.Name(), n, v)
	}
	if got := b.Episodes(); got != int64(2*episodes) {
		t.Errorf("%s: episodes = %d, want %d", b.Name(), got, 2*episodes)
	}
}

// splitNames are the names NewSplit builds.
var splitNames = []string{"fuzzy", "fuzzy-tree", "fuzzy-reduce", "hier"}

// splitPoint runs a split barrier from NewSplit as a point barrier (an
// empty barrier region), so the counter detector covers it too.
type splitPoint struct {
	name string
	b    core.SplitBarrier
}

func newSplitPoint(name string) func(n int) Barrier {
	return func(n int) Barrier {
		b, err := NewSplit(name, n)
		if err != nil {
			panic(err)
		}
		return splitPoint{name, b}
	}
}

func (p splitPoint) Await(id int) {
	checkID(id, p.b.N())
	p.b.Await()
}

func (p splitPoint) N() int       { return p.b.N() }
func (p splitPoint) Name() string { return p.name }

func (p splitPoint) Spins() int64 {
	_, _, _, _, _, spinIters := p.b.Stats()
	return spinIters
}

func (p splitPoint) Episodes() int64 {
	syncs, _, _, _, _, _ := p.b.Stats()
	return syncs
}

// constructors for every implementation under test.
var constructors = map[string]func(n int) Barrier{
	"central":         func(n int) Barrier { return NewCentral(n) },
	"sense-reversing": func(n int) Barrier { return NewSenseReversing(n) },
	"tree":            func(n int) Barrier { return NewTree(n, 4) },
	"tree-fan2":       func(n int) Barrier { return NewTree(n, 2) },
	"dissemination":   func(n int) Barrier { return NewDissemination(n) },
	"tournament":      func(n int) Barrier { return NewTournament(n) },
	"fuzzy":           newSplitPoint("fuzzy"),
	"fuzzy-tree":      newSplitPoint("fuzzy-tree"),
	"fuzzy-reduce":    newSplitPoint("fuzzy-reduce"),
	"hier":            newSplitPoint("hier"),
}

// pointNames are the constructors TestBarrierPropertyRandomSizes draws
// from, in sorted order: all but the tree-fan2 shape.
var pointNames = []string{"central", "dissemination", "fuzzy", "fuzzy-reduce", "fuzzy-tree", "hier", "sense-reversing", "tournament", "tree"}

func TestAllBarrierImplementations(t *testing.T) {
	for name, mk := range constructors {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16} {
			name, mk, n := name, mk, n
			t.Run(name+"/n="+itoa(n), func(t *testing.T) {
				t.Parallel()
				checkBarrier(t, mk, n, 50)
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

// TestBarrierPropertyRandomSizes drives random (implementation, size,
// episodes) combinations through the counter detector.
func TestBarrierPropertyRandomSizes(t *testing.T) {
	f := func(pick, size, eps uint8) bool {
		name := pointNames[int(pick)%len(pointNames)]
		n := int(size%10) + 1
		episodes := int(eps%20) + 1
		b := constructors[name](n)
		var counter atomic.Int64
		okFlag := atomic.Bool{}
		okFlag.Store(true)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for e := int64(0); e < int64(episodes); e++ {
					counter.Add(1)
					b.Await(id)
					if counter.Load() != int64(n)*(e+1) {
						okFlag.Store(false)
					}
					b.Await(id)
				}
			}(p)
		}
		wg.Wait()
		return okFlag.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSplitFactory(t *testing.T) {
	for _, name := range splitNames {
		b, err := NewSplit(name, 4)
		if err != nil {
			t.Errorf("NewSplit(%q): %v", name, err)
			continue
		}
		if b.N() != 4 {
			t.Errorf("NewSplit(%q).N() = %d, want 4", name, b.N())
		}
	}
	if _, err := NewSplit("central", 4); err == nil {
		t.Error("expected error for non-split name")
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct {
		n, fanIn, depth int
	}{
		{4, 4, 1},
		{16, 4, 2},
		{17, 4, 3},
		{64, 4, 3},
		{8, 2, 3},
	}
	for _, c := range cases {
		b := NewTree(c.n, c.fanIn)
		if got := b.Depth(); got != c.depth {
			t.Errorf("Tree(%d,fan %d).Depth = %d, want %d", c.n, c.fanIn, got, c.depth)
		}
	}
}

func TestDisseminationRounds(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4} {
		if got := NewDissemination(n).Rounds(); got != want {
			t.Errorf("Dissemination(%d).Rounds = %d, want %d", n, got, want)
		}
	}
}

func TestTournamentRounds(t *testing.T) {
	for n, want := range map[int]int{2: 1, 3: 2, 4: 2, 8: 3, 16: 4} {
		if got := NewTournament(n).Rounds(); got != want {
			t.Errorf("Tournament(%d).Rounds = %d, want %d", n, got, want)
		}
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("central n=0", func() { NewCentral(0) })
	mustPanic("await id out of range", func() { NewCentral(2).Await(2) })
	mustPanic("dissemination n=0", func() { NewDissemination(0) })
}

func TestSpinsAccumulate(t *testing.T) {
	// With a deliberately unbalanced arrival pattern, waiters must spin.
	b := NewCentral(2)
	done := make(chan struct{})
	go func() {
		b.Await(0)
		close(done)
	}()
	// Give the first arriver time to start spinning.
	for i := 0; i < 1000; i++ {
		if b.Spins() > 0 {
			break
		}
	}
	b.Await(1)
	<-done
	if b.Spins() == 0 {
		t.Log("no spins observed (single-core scheduling); not a failure")
	}
	if b.Episodes() != 1 {
		t.Errorf("episodes = %d, want 1", b.Episodes())
	}
}
