package core

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// The contract suite: the paper makes one promise for every fuzzy
// barrier — ∀i: UNSHADED2ᵢ may execute iff ∀j: UNSHADED1ⱼ has executed —
// so each property below is one test that ranges over one table of
// barriers. The same table drives the -race bait (race_test.go) and the
// stress harness (stressharness_test.go). A property that does not apply
// to a row skips it and says why.

// contractRow is one split barrier of the contract table. Where Go can
// tell a capability from the barrier's method set (ArriveProfiler,
// *ReduceBarrier), the properties ask the barrier; the fields below hold
// what it cannot.
type contractRow struct {
	name   string
	radix  int // tree, hier and reduce fan-in; 0 keeps the constructor's default
	shards int // hier shard count; 0 derives it from GOMAXPROCS

	// op and identity are the reduce row's operator.
	op       ReduceOp
	identity int64

	// build returns the row's barrier for n participants.
	build func(r contractRow, n int) stressBarrier

	// leaf0, on the rows with deterministic leaf routing, arrives on
	// leaf 0 (hier: shard 0's leaf 0) instead of the hashed home.
	leaf0 func(stressBarrier) Phase
}

// contractRows is the table: central; tree at radix 2, 3 and 4; hier at
// one shard, three shards and the GOMAXPROCS default; and reduce through
// its plain split-phase Arrive.
var contractRows = []contractRow{
	{name: "central", build: func(_ contractRow, n int) stressBarrier { return NewFuzzyBarrier(n) }},
	{name: "tree-r2", radix: 2, build: buildTree, leaf0: treeLeaf0},
	{name: "tree-r3", radix: 3, build: buildTree, leaf0: treeLeaf0},
	{name: "tree-r4", radix: 4, build: buildTree, leaf0: treeLeaf0},
	{name: "hier-s1", radix: 2, shards: 1, build: buildHier, leaf0: hierLeaf0},
	{name: "hier-s3", radix: 2, shards: 3, build: buildHier, leaf0: hierLeaf0},
	{name: "hier", build: buildHier, leaf0: hierLeaf0},
	{name: "reduce", op: OpSum, identity: IdentitySum, build: func(r contractRow, n int) stressBarrier {
		return NewReduceBarrierRadix(n, r.radix, r.op, r.identity)
	}},
}

func buildTree(r contractRow, n int) stressBarrier { return NewTreeBarrierRadix(n, r.radix) }

func buildHier(r contractRow, n int) stressBarrier {
	return NewHierBarrierConfig(n, HierConfig{Shards: r.shards, Radix: r.radix})
}

func treeLeaf0(h stressBarrier) Phase { return h.(*TreeBarrier).ArriveLeaf(0) }
func hierLeaf0(h stressBarrier) Phase { return h.(*HierBarrier).ArriveShardLeaf(0, 0) }

// split and comb reach the embedded splitCore (the SpinLimit knob) and
// combTree (the node counters) of whichever barrier a row builds.
func (c *splitCore) split() *splitCore { return c }
func (t *combTree) comb() *combTree    { return t }

// eachRow runs property once per row, as parallel subtests named after
// the rows.
func eachRow(t *testing.T, property func(t *testing.T, r contractRow)) {
	for _, r := range contractRows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			property(t, r)
		})
	}
}

// contractStuck is how long a run's epoch may stand still before the run
// is declared hung. Every run here completes a phase in microseconds, so
// a broken barrier fails the property instead of hanging the package
// until its timeout.
const contractStuck = 3 * time.Second

// awaitProgress waits for wg while c's epoch keeps moving. Once the
// epoch has stood still for contractStuck it reports false with the
// epoch it stood at, after publishing one phase per tick for up to
// contractStuck more: a hung run's goroutines drain instead of blocking
// or spinning on a stale epoch, and the tests after it run on a quiet
// host.
func awaitProgress(wg *sync.WaitGroup, c *splitCore) (stood int64, ok bool) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	last, since, hung := c.Epoch(), time.Now(), false
	for {
		select {
		case <-done:
			return last, !hung
		case now := <-tick.C:
			switch e := c.Epoch(); {
			case hung && now.Sub(since) > contractStuck:
				return last, false
			case hung:
				c.publish()
			case e != last:
				last, since = e, now
			case now.Sub(since) > contractStuck:
				hung, since = true, now
			}
		}
	}
}

// runN runs body(0), …, body(n-1) on n goroutines and reports whether
// they all returned. A run whose epoch stands still for contractStuck,
// or a goroutine that panics, fails t instead of hanging or killing the
// package — a serial test that Waits passes n = 1 for the same guard.
func runN(t *testing.T, c *splitCore, n int, body func(id int)) bool {
	t.Helper()
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("goroutine %d panicked: %v", id, r)
				}
			}()
			body(id)
		}()
	}
	if stood, ok := awaitProgress(&wg, c); !ok {
		t.Errorf("the epoch stood at %d for %v: a phase never completed", stood, contractStuck)
		return false
	}
	return true
}

// TestContractOrdersPhases: every participant's write before Arrive is
// visible after every Wait of the phase, and the epoch counts exactly the
// phases run. The sizes leave tree leaves and hier shards partial. Stale
// reads are counted, as the -race bait counts them, so a broken barrier
// fails with its count rather than blocking on a full channel.
func TestContractOrdersPhases(t *testing.T) {
	const phases = 200
	eachRow(t, func(t *testing.T, r contractRow) {
		for _, n := range []int{2, 3, 4, 5, 8, 13} {
			if !t.Run(strconv.Itoa(n), func(t *testing.T) {
				b := r.build(r, n)
				published := make([]atomic.Int64, n)
				var stale atomic.Int64
				if !runN(t, b.split(), n, func(id int) {
					for p := int64(0); p < phases; p++ {
						published[id].Store(p)
						b.Wait(b.Arrive())
						for j := range published {
							if published[j].Load() < p {
								stale.Add(1)
							}
						}
						b.Await() // nobody advances until all checked
					}
				}) {
					return
				}
				if s := stale.Load(); s > 0 {
					t.Errorf("%d stale reads: a Wait returned before every participant arrived", s)
				}
				if got := b.Epoch(); got != 2*phases {
					t.Errorf("epoch = %d, want %d", got, 2*phases)
				}
			}) {
				return // a failed size fails the row; a hung one would hang each size after it
			}
		}
	})
}

// TestContractAwaitIsPointBarrier: Await is a conventional barrier —
// between two of them a shared counter is stable at n per episode — at
// sizes up to 257, none of them radix- or shard-aligned.
func TestContractAwaitIsPointBarrier(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		for _, n := range []int{1, 2, 5, 8, 16, 33, 257} {
			if !t.Run(strconv.Itoa(n), func(t *testing.T) {
				episodes := int64(100)
				if n > 50 {
					episodes = 10
				}
				b := r.build(r, n)
				var counter, bad atomic.Int64
				if !runN(t, b.split(), n, func(_ int) {
					for e := int64(0); e < episodes; e++ {
						counter.Add(1)
						b.Await()
						if counter.Load() != int64(n)*(e+1) {
							bad.Add(1)
						}
						b.Await()
					}
				}) {
					return
				}
				if b := bad.Load(); b > 0 {
					t.Errorf("%d reads of the counter between barriers were inconsistent", b)
				}
				if got := b.Epoch(); got != 2*episodes {
					t.Errorf("epoch = %d, want %d", got, 2*episodes)
				}
			}) {
				return // a failed size fails the row; a hung one would hang each size after it
			}
		}
	})
}

// TestContractRegionOverlap: a fast participant's Wait does not return
// while its partner has not arrived, and returns once the partner
// arrives, although the partner never waits.
func TestContractRegionOverlap(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		b := r.build(r, 2)
		done := make(chan struct{})
		go func() {
			b.Wait(b.Arrive())
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("Wait returned before the partner arrived")
		case <-time.After(10 * time.Millisecond):
		}
		b.Arrive()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("Wait did not return after the partner arrived")
		}
	})
}

// TestContractTryWait: TryWait is false until every participant has
// arrived and true after, and the Wait that follows is a fast one.
func TestContractTryWait(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		b := r.build(r, 2)
		ph := b.Arrive()
		if b.TryWait(ph) {
			t.Fatal("TryWait true before the partner arrived")
		}
		b.Arrive()
		if !b.TryWait(ph) {
			t.Fatal("TryWait false after all arrived")
		}
		b.Wait(ph)
		if s := b.StatsSnapshot(); s.FastWaits != 1 || s.Blocks != 0 {
			t.Errorf("fast=%d blocks=%d, want 1/0", s.FastWaits, s.Blocks)
		}
	})
}

// TestContractSingleParticipant: a lone participant's own Arrive
// completes its phase, and the barrier reports its size as 1.
func TestContractSingleParticipant(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		h := r.build(r, 1)
		for range 10 {
			ph := h.Arrive()
			if !h.TryWait(ph) {
				t.Fatal("a single participant should sync instantly")
			}
			h.Wait(ph)
		}
		if h.Epoch() != 10 {
			t.Errorf("epoch = %d, want 10", h.Epoch())
		}
		if h.N() != 1 {
			t.Errorf("N() = %d, want 1", h.N())
		}
	})
}

// TestContractPanicsOnZero: a barrier built for no participants panics.
func TestContractPanicsOnZero(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		defer func() {
			if recover() == nil {
				t.Error("expected a panic for n=0")
			}
		}()
		r.build(r, 0)
	})
}

// TestContractStarvedWaitIsOneBlock: a Wait with a spin budget of one
// whose partner has not arrived sleeps on the condition variable and is
// counted as exactly one block. The partner arrives only once the block
// is counted, so a waiter that was descheduled cannot take the fast path
// instead. An explicit budget pins the policy: however quickly the
// starved waits resolve, no spin horizon is learned, and every one is
// still one block.
func TestContractStarvedWaitIsOneBlock(t *testing.T) {
	const starved = 8
	eachRow(t, func(t *testing.T, r contractRow) {
		b := r.build(r, 2)
		b.split().SpinLimit = 1
		for k := int64(1); k <= starved; k++ {
			done := make(chan struct{})
			go func() {
				b.Wait(b.Arrive())
				close(done)
			}()
			deadline := time.Now().Add(10 * time.Second)
			for b.StatsSnapshot().Blocks < k {
				if time.Now().After(deadline) {
					t.Fatalf("starved Wait %d never blocked", k)
				}
				runtime.Gosched()
			}
			ph := b.Arrive()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("blocked Wait %d never woke", k)
			}
			if k == 1 {
				if s := b.StatsSnapshot(); s.Blocks != 1 || s.Waits() != 1 {
					t.Errorf("blocks = %d of %d waits, want 1 of 1", s.Blocks, s.Waits())
				}
			}
			b.Wait(ph) // already published: a fast Wait
		}
		if s := b.StatsSnapshot(); s.Blocks != starved || s.Waits() != 2*starved {
			t.Errorf("after %d starved waits at SpinLimit 1: blocks = %d of %d waits, want %d of %d",
				starved, s.Blocks, s.Waits(), starved, 2*starved)
		}
		if h := b.split().horizon.Load(); h != 0 {
			t.Errorf("an explicit SpinLimit learned a spin horizon of %d ns", h)
		}
	})
}

// TestContractEpochNeverSkips: for random sizes and episode counts every
// participant sees the epoch strictly increase across its Waits, and the
// final epoch is the episode count. A row with a pinned shape draws its
// radix (2-4) and shard count (1-5) at random too.
func TestContractEpochNeverSkips(t *testing.T) {
	eachRow(t, func(t *testing.T, r contractRow) {
		f := func(w, e, x, s uint8) bool {
			shaped := r
			if r.radix != 0 {
				shaped.radix = int(x%3) + 2
			}
			if r.shards != 0 {
				shaped.shards = int(s%5) + 1
			}
			n, episodes := int(w%9)+1, int(e%30)+1
			b := shaped.build(shaped, n)
			var skipped atomic.Bool
			ok := runN(t, b.split(), n, func(_ int) {
				last := int64(-1)
				for range episodes {
					b.Wait(b.Arrive())
					cur := b.Epoch()
					if cur <= last {
						skipped.Store(true)
					}
					last = cur
				}
			})
			return ok && !skipped.Load() && b.Epoch() == int64(episodes)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}

// TestContractCollisionInvariant hammers leaf 0 from every participant —
// the worst case the stack-address hash is there to avoid — and checks
// the overshoot-undo invariant while the run goes: a node's cumulative
// count never dips below the target of a completed phase (every undo
// cancels only its own overshoot). At the end every node holds exactly
// quota·phases (one climber per node per phase), and every arrival
// beyond leaf 0's quota probed or undid at least once.
func TestContractCollisionInvariant(t *testing.T) {
	const n, phases = 9, 150
	eachRow(t, func(t *testing.T, r contractRow) {
		if r.leaf0 == nil {
			t.Skip("no deterministic leaf routing")
		}
		b := r.build(r, n)
		ct := b.(interface{ comb() *combTree }).comb()
		stop := make(chan struct{})
		sampled := make(chan struct{})
		var below atomic.Int64
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Load the epoch first: count >= quota·e holds for any e
				// complete at or before the count is read.
				e := b.Epoch()
				for i := range ct.nodes {
					if ct.nodes[i].count.Load() < ct.nodes[i].quota*e {
						below.Add(1)
					}
				}
				runtime.Gosched()
			}
		}()
		ok := runN(t, b.split(), n, func(_ int) {
			for range phases {
				b.Wait(r.leaf0(b))
			}
		})
		close(stop)
		<-sampled
		if !ok {
			return
		}
		if b := below.Load(); b > 0 {
			t.Errorf("%d samples saw a count below a completed phase's target (undo leaked)", b)
		}
		for i := range ct.nodes {
			if got, want := ct.nodes[i].count.Load(), ct.nodes[i].quota*phases; got != want {
				t.Errorf("node %d final count = %d, want exactly %d", i, got, want)
			}
		}
		misses := ct.Probes()
		if u, ok := b.(interface{ Undos() int64 }); ok {
			misses += u.Undos()
		}
		if want := phases * (n - ct.nodes[0].quota); misses < want {
			t.Errorf("probes+undos = %d, want >= %d", misses, want)
		}
		if got := b.Epoch(); got != phases {
			t.Errorf("epoch = %d, want %d", got, phases)
		}
	})
}

// TestContractHotspotBelowCentral is the arrive-side contention claim at
// 256 participants: the central counter takes exactly n+1 atomic
// operations per phase, and every combining barrier's hottest word takes
// under half that. It is a property of the algorithms, not of the host's
// core count, so it holds on a single CPU.
func TestContractHotspotBelowCentral(t *testing.T) {
	const n, episodes = 256, 20
	eachRow(t, func(t *testing.T, r contractRow) {
		b := r.build(r, n)
		prof, ok := b.(ArriveProfiler)
		if !ok {
			t.Skip("no ArriveProfiler")
		}
		if !runEpisodes(t, b, n, episodes) {
			return
		}
		ops, phases := prof.HotspotOps()
		if phases != episodes {
			t.Fatalf("phases = %d, want %d", phases, episodes)
		}
		per := float64(ops) / float64(phases)
		switch {
		case r.name == "central" && per != n+1:
			t.Errorf("hotspot = %v ops/phase, want exactly %d", per, n+1)
		case r.name != "central" && per >= float64(n+1)/2:
			t.Errorf("hotspot = %.1f ops/phase, want under half of central's %d", per, n+1)
		}
		t.Logf("hotspot ops/phase at n=%d: %.1f", n, per)
	})
}
