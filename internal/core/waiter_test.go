package core

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// eachSpinWord runs a waiter test twice: spinning on the epoch itself
// (every barrier but HierBarrier) and on a separate local word
// (HierBarrier's shard release words) that the test advances late or
// never — wait must resolve, and account, identically either way.
func eachSpinWord(t *testing.T, test func(t *testing.T, c *splitCore, word *atomic.Int64)) {
	t.Run("epoch", func(t *testing.T) {
		var c splitCore
		c.init(1)
		test(t, &c, &c.epoch)
	})
	t.Run("local", func(t *testing.T) {
		var c splitCore
		c.init(1)
		test(t, &c, new(atomic.Int64))
	})
}

// startExhaustedWaiter launches a waiter that is guaranteed to burn its
// whole spin budget: the test holds c.mu, so the waiter cannot reach the
// locked recheck, and the returned function blocks until the waiter has
// recorded the exhausted histogram bucket — which happens strictly
// before its mu.Lock, so once observed the waiter's fate is decided
// entirely by what the test does with the mutex and the epoch.
func startExhaustedWaiter(t *testing.T, c *splitCore, word *atomic.Int64) (awaitExhausted, awaitDone func()) {
	t.Helper()
	c.SpinLimit = 4
	done := make(chan struct{})
	go func() {
		c.wait(Phase{epoch: 0}, word)
		close(done)
	}()
	awaitExhausted = func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.waits.waitSpins[NumWaitBuckets-1].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never exhausted its spin budget")
			}
			runtime.Gosched()
		}
	}
	awaitDone = func() {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("waiter never returned")
		}
	}
	return awaitExhausted, awaitDone
}

// TestWaitLockResolvedIsNotABlock is the regression test for the Blocks
// misattribution: a Wait that exhausts its spin budget but finds the
// epoch already published at the locked recheck never sleeps on the
// condition variable, so it must be charged as a LockWait, not a Block.
// The old code bumped Blocks before taking the mutex, counting this
// no-context-switch outcome as the expensive case Section 8 isolates.
//
// The lock-but-no-sleep window is driven deterministically: the test
// holds the waiter mutex across the whole spin phase, then advances the
// epoch while still holding it, so the waiter's recheck — the first
// thing it can do after the spins — is guaranteed to see the phase
// complete.
func TestWaitLockResolvedIsNotABlock(t *testing.T) {
	eachSpinWord(t, testWaitLockResolvedIsNotABlock)
}

func testWaitLockResolvedIsNotABlock(t *testing.T, c *splitCore, word *atomic.Int64) {
	c.mu.Lock()
	awaitExhausted, awaitDone := startExhaustedWaiter(t, c, word)
	awaitExhausted()
	// Publish under the mutex the waiter is parked on: when it acquires
	// the lock, the recheck must resolve the wait without a sleep. A
	// local spin word never moves: the recheck reads the epoch alone.
	c.epoch.Add(1)
	c.mu.Unlock()
	awaitDone()

	s := c.snapshot(noArrivals)
	if s.Blocks != 0 {
		t.Errorf("Blocks = %d, want 0: a lock-resolved Wait was counted as a block", s.Blocks)
	}
	if s.LockWaits != 1 {
		t.Errorf("LockWaits = %d, want 1", s.LockWaits)
	}
	if s.FastWaits != 0 || s.SpinWaits != 0 {
		t.Errorf("FastWaits = %d, SpinWaits = %d, want 0, 0", s.FastWaits, s.SpinWaits)
	}
	checkHistogramReconciles(t, s)
}

// TestWaitRealBlockStillCounted is the other half of the regression: a
// Wait that reaches the locked recheck with the phase still pending must
// be charged as a Block (it provably sleeps — the recheck runs under the
// same mutex publish advances the epoch under).
func TestWaitRealBlockStillCounted(t *testing.T) {
	eachSpinWord(t, testWaitRealBlockStillCounted)
}

func testWaitRealBlockStillCounted(t *testing.T, c *splitCore, word *atomic.Int64) {
	c.mu.Lock()
	awaitExhausted, awaitDone := startExhaustedWaiter(t, c, word)
	awaitExhausted()
	// Release the mutex without advancing the epoch: the recheck fails
	// and the waiter sleeps on the condition variable.
	c.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for c.waits.Blocks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never took the block path")
		}
		runtime.Gosched()
	}
	// Blocks is charged with the mutex held and cond.Wait entered before
	// it is released, so publish (which takes the same mutex) cannot
	// slip in between the recheck and the sleep. A local spin word never
	// moves: the broadcast alone wakes the sleeper.
	c.publish()
	awaitDone()

	s := c.snapshot(noArrivals)
	if s.Blocks != 1 {
		t.Errorf("Blocks = %d, want 1", s.Blocks)
	}
	if s.LockWaits != 0 {
		t.Errorf("LockWaits = %d, want 0", s.LockWaits)
	}
	checkHistogramReconciles(t, s)
}

// TestWaitFastAndSpinBuckets covers the resolved outcomes: a fast Wait
// lands in the first bucket with zero iterations, and a spin-resolved
// Wait is charged both an outcome and a bucket.
func TestWaitFastAndSpinBuckets(t *testing.T) {
	eachSpinWord(t, testWaitFastAndSpinBuckets)
}

func testWaitFastAndSpinBuckets(t *testing.T, c *splitCore, word *atomic.Int64) {
	// A local spin word still lags here: the fast path must resolve on
	// the central epoch alone.
	c.SpinLimit = 4
	c.publish()
	c.wait(Phase{epoch: 0}, word)
	s := c.snapshot(noArrivals)
	if s.FastWaits != 1 || s.WaitSpins[0] != 1 {
		t.Errorf("fast wait: FastWaits = %d, bucket0 = %d, want 1, 1", s.FastWaits, s.WaitSpins[0])
	}
	checkHistogramReconciles(t, s)

	// Spin-resolved: publish concurrently while the waiter spins with a
	// huge budget, so it resolves during the spin loop — on a local word
	// only once the fan-out, late, raises it.
	c.SpinLimit = 1 << 30
	done := make(chan struct{})
	go func() {
		c.wait(Phase{epoch: 1}, word)
		close(done)
	}()
	c.publish()
	if word != &c.epoch {
		runtime.Gosched()
		word.Store(2)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("spinning waiter never resolved")
	}
	s = c.snapshot(noArrivals)
	if s.SpinWaits+s.FastWaits != 2 {
		t.Errorf("after second wait: FastWaits+SpinWaits = %d, want 2", s.SpinWaits+s.FastWaits)
	}
	if s.SpinWaits == 1 && s.SpinIters < 1 {
		t.Errorf("SpinIters = %d, want >= 1 for a spin-resolved Wait", s.SpinIters)
	}
	checkHistogramReconciles(t, s)

	// Resolved in the extension: the default budget with a horizon far
	// longer than the test, published a millisecond after the waiter
	// starts, so it spins well past DefaultSpinLimit. A waiter the
	// scheduler starts late resolves earlier instead; retry until one
	// spins into the >256 bucket.
	c.SpinLimit = 0
	c.horizon.Store(int64(time.Hour))
	long := NumSpinBuckets - 1
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			t.Fatal("no waiter spun past the default budget in 100 attempts")
		}
		before := c.snapshot(noArrivals)
		p := Phase{epoch: before.Syncs}
		done := make(chan struct{})
		go func() {
			c.wait(p, word)
			close(done)
		}()
		time.Sleep(time.Millisecond)
		c.publish()
		if word != &c.epoch {
			word.Store(p.epoch + 1)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the extension never saw the publish")
		}
		s = c.snapshot(noArrivals)
		checkHistogramReconciles(t, s)
		if s.SpinIters-before.SpinIters <= pow4(NumSpinBuckets-2) {
			continue
		}
		if s.SpinWaits != before.SpinWaits+1 || s.WaitSpins[long] != before.WaitSpins[long]+1 {
			t.Errorf("extension: SpinWaits %d -> %d, >256 bucket %d -> %d, want one more of each",
				before.SpinWaits, s.SpinWaits, before.WaitSpins[long], s.WaitSpins[long])
		}
		if s.Blocks+s.LockWaits != 0 {
			t.Errorf("extension: Blocks = %d, LockWaits = %d, want 0, 0", s.Blocks, s.LockWaits)
		}
		return
	}
}

// TestSpinHorizonRule pins learn, the spin-horizon rule: the first
// wake-up seeds the wake cost, a wake-up (the running cost or this
// sample) under wakeYields yields resets the horizon, a need within one
// wake-up raises it to cover the need, a longer need halves it, and it
// never leaves [0, 2·wake].
func TestSpinHorizonRule(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		h, w, need, lat, yield int64
		wantH, wantW           int64
	}{
		{"first sample seeds the wake cost", 0, 0, 800, 8000, 100, 1000, 8000},
		{"a short need raises the horizon", 1000, 8000, 2000, 8000, 100, 2500, 8000},
		{"a shorter need keeps it", 4000, 8000, 1000, 8000, 100, 4000, 8000},
		{"the wake cost moves by an eighth", 0, 8000, 800, 16000, 100, 1000, 9000},
		{"a need of one wake-up is covered", 0, 8000, 8000, 8000, 100, 10000, 8000},
		{"capped at two wake-ups", 20000, 8000, 100, 7200, 100, 15800, 7900},
		{"a long need halves it", 4000, 8000, 50000, 8000, 100, 2000, 8000},
		{"a cheap wake-up resets it", 4000, 8000, 1000, 8000, 200, 0, 8000},
		{"so does one cheap sample", 4000, 8000, 1000, 4000, 100, 0, 7500},
		{"never negative", 1, 8000, 50000, 8000, 100, 0, 8000},
		{"zero stays zero", 0, 8000, 50000, 8000, 100, 0, 8000},
	} {
		h, w := learn(tc.h, tc.w, tc.need, tc.lat, tc.yield)
		if h != tc.wantH || w != tc.wantW {
			t.Errorf("%s: learn(%d, %d, %d, %d, %d) = %d, %d, want %d, %d",
				tc.name, tc.h, tc.w, tc.need, tc.lat, tc.yield, h, w, tc.wantH, tc.wantW)
		}
	}

	// A string of preemption-length needs (a millisecond against an
	// 8 µs wake-up) takes the horizon from its cap back to 0.
	h, w := int64(16000), int64(8000)
	for i := 0; h > 0; i++ {
		if i == 64 {
			t.Fatalf("horizon still %d after 64 preemption-length needs", h)
		}
		h, w = learn(h, w, int64(time.Millisecond), 8000, 100)
		if h < 0 || h > 2*w {
			t.Fatalf("horizon %d left [0, %d]", h, 2*w)
		}
	}
}

func noArrivals() int64 { return 0 }

// checkHistogramReconciles asserts the bucket bookkeeping: the histogram
// total equals Waits() and the exhausted bucket holds exactly the waits
// that burned their whole budget (LockWaits + Blocks).
func checkHistogramReconciles(t *testing.T, s BarrierStats) {
	t.Helper()
	var hist int64
	for _, c := range s.WaitSpins {
		hist += c
	}
	if hist != s.Waits() {
		t.Errorf("histogram sums to %d, Waits() = %d", hist, s.Waits())
	}
	if got := s.WaitSpins[NumWaitBuckets-1]; got != s.LockWaits+s.Blocks {
		t.Errorf("exhausted bucket = %d, LockWaits+Blocks = %d", got, s.LockWaits+s.Blocks)
	}
}

// TestOversubscribedWaitParksAtOnce: on a barrier with more participants
// than GOMAXPROCS, a default-budget Wait that misses the fast path
// neither spins nor yields nor learns a horizon. It resolves at the
// locked recheck or blocks, with zero spin iterations, in the exhausted
// bucket. Every row runs just past the Ps and at four per P.
func TestOversubscribedWaitParksAtOnce(t *testing.T) {
	const episodes = 200
	procs := runtime.GOMAXPROCS(0)
	eachRow(t, func(t *testing.T, r contractRow) {
		for _, n := range []int{procs + 1, 4 * procs} {
			t.Run(strconv.Itoa(n), func(t *testing.T) {
				b := r.build(r, n)
				if !runN(t, b.split(), n, func(int) {
					for range episodes {
						b.Wait(b.Arrive())
					}
				}) {
					return
				}
				s := b.StatsSnapshot()
				if s.SpinIters != 0 || s.SpinWaits != 0 {
					t.Errorf("SpinIters = %d, SpinWaits = %d, want 0, 0", s.SpinIters, s.SpinWaits)
				}
				if h := b.split().horizon.Load(); h != 0 {
					t.Errorf("learned a spin horizon of %d ns", h)
				}
				// A run whose Waits were all fast would test nothing.
				if slow := s.Waits() - s.FastWaits; slow == 0 || slow != s.LockWaits+s.Blocks {
					t.Errorf("%d Waits missed the fast path, LockWaits+Blocks = %d, want equal and > 0",
						slow, s.LockWaits+s.Blocks)
				}
				checkHistogramReconciles(t, s)
			})
		}
	})
}

// TestOversubscribedReadAtConstruction: every constructor records
// whether its participants outnumber GOMAXPROCS, and n = GOMAXPROCS is
// not oversubscribed.
func TestOversubscribedReadAtConstruction(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name  string
		build func(n int) *splitCore
	}{
		{"NewFuzzyBarrier", func(n int) *splitCore { return NewFuzzyBarrier(n).split() }},
		{"NewTreeBarrierRadix", func(n int) *splitCore { return NewTreeBarrierRadix(n, 2).split() }},
		{"NewHierBarrierConfig", func(n int) *splitCore { return NewHierBarrierConfig(n, HierConfig{}).split() }},
		{"NewReduceBarrierRadix", func(n int) *splitCore {
			return NewReduceBarrierRadix(n, 2, OpSum, IdentitySum).split()
		}},
	} {
		for _, n := range []int{procs, procs + 1} {
			if got, want := tc.build(n).oversubscribed, n > procs; got != want {
				t.Errorf("%s(%d) at GOMAXPROCS %d: oversubscribed = %v, want %v", tc.name, n, procs, got, want)
			}
		}
	}
}
