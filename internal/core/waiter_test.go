package core

import (
	"runtime"
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
		c.init()
		test(t, &c, &c.epoch)
	})
	t.Run("local", func(t *testing.T) {
		var c splitCore
		c.init()
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
