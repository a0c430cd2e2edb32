package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzybarrier/internal/phase"
)

// TestPhaserSignalWaitGroup: a group of signal+wait members behaves like
// an ordinary split barrier, with Syncs tracking Epoch.
func TestPhaserSignalWaitGroup(t *testing.T) {
	const workers, phases = 4, 200
	p := NewPhaser()
	members := make([]*PhaserMember, workers)
	for i := range members {
		members[i] = p.Register(SignalWait)
	}
	if p.Members() != workers || p.Signalers() != workers {
		t.Fatalf("members = %d, signalers = %d, want %d, %d", p.Members(), p.Signalers(), workers, workers)
	}
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *PhaserMember) {
			defer wg.Done()
			for i := 0; i < phases; i++ {
				m.Wait(m.Arrive())
			}
		}(m)
	}
	wg.Wait()
	if p.Epoch() != phases {
		t.Errorf("epoch = %d, want %d", p.Epoch(), phases)
	}
	if s := p.StatsSnapshot(); s.Syncs != p.Epoch() {
		t.Errorf("Syncs = %d, Epoch = %d", s.Syncs, p.Epoch())
	}
}

// TestPhaserSignalOnlyRunsAhead: a signal-only producer can deposit
// signals for several future phases without waiting; each phase still
// needs every signaler, so the group's laggard paces the epoch.
func TestPhaserSignalOnlyRunsAhead(t *testing.T) {
	p := NewPhaser()
	a := p.Register(SignalWait)
	b := p.Register(SignalOnly)

	// B signals three phases ahead; nothing advances without A.
	for i := 0; i < 3; i++ {
		b.Arrive()
	}
	if p.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0 (A has not signaled)", p.Epoch())
	}
	// Each of A's signals completes one phase immediately: B's advance
	// deposits are already banked.
	for want := int64(1); want <= 3; want++ {
		ph := a.Arrive()
		if p.Epoch() != want {
			t.Fatalf("after A's signal %d: epoch = %d, want %d", want, p.Epoch(), want)
		}
		if !a.TryWait(ph) {
			t.Fatalf("A's ticket for phase %d not complete", want-1)
		}
		a.Wait(ph) // fast path; also exercises the counter
	}
	// B's bank is spent: A's next signal leaves phase 3 pending on B.
	ph := a.Arrive()
	if p.Epoch() != 3 || a.TryWait(ph) {
		t.Fatalf("epoch = %d, TryWait = %v; want 3, false (B owes a signal)", p.Epoch(), a.TryWait(ph))
	}
	b.Arrive()
	if p.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", p.Epoch())
	}
	a.Wait(ph)
}

// TestPhaserWaitOnlyDoesNotGate: wait-only consumers observe phase
// boundaries without contributing signals.
func TestPhaserWaitOnlyDoesNotGate(t *testing.T) {
	p := NewPhaser()
	a := p.Register(SignalWait)
	c := p.Register(WaitOnly)
	if p.Signalers() != 1 {
		t.Fatalf("signalers = %d, want 1", p.Signalers())
	}

	ph := c.Arrive() // ticket for the next boundary
	if c.TryWait(ph) {
		t.Fatal("consumer ticket complete before any phase")
	}
	// A alone completes the phase; C never signaled.
	a.Wait(a.Arrive())
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", p.Epoch())
	}
	c.Wait(ph) // fast path now
}

// TestPhaserPointToPoint: the producer/consumer ordering guarantee. The
// producer writes slot k then signals; a consumer that waited past phase
// k's boundary must observe the write — each slot is written exactly
// once, before the signal that completes its phase, so the read after
// Wait is ordered and race-free.
func TestPhaserPointToPoint(t *testing.T) {
	const phases, window = 300, 8
	p := NewPhaser()
	prod := p.Register(SignalOnly)
	cons := p.Register(WaitOnly)
	data := make([]int64, phases) // plain slots, ordered only by the phaser

	// The producer is paced on the consumer's declared need so the test
	// actually overlaps them: it runs at most `window` phases past the
	// boundary the consumer is waiting on (`need` is stored before the
	// consumer waits, so the producer always covers the awaited phase —
	// no deadlock), and free-runs once the consumer is done. The pacing
	// atomics only add consumer->producer edges, so the
	// producer->consumer ordering under test still rests on the phaser
	// alone.
	var need, consumerDone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := int64(0); k < phases; k++ {
			for k >= need.Load()+window && consumerDone.Load() == 0 {
				runtime.Gosched()
			}
			data[k] = k*3 + 1
			prod.Arrive()
		}
	}()
	var stale, observed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ph := cons.Arrive()
			// Stop at the last boundary the producer will definitely
			// complete; waiting past it would need the drain, which only
			// happens after this goroutine exits.
			if ph.epoch >= phases-1 {
				consumerDone.Store(1)
				return
			}
			need.Store(ph.epoch + 1)
			cons.Wait(ph)
			observed++
			if data[ph.epoch] != ph.epoch*3+1 {
				stale++
			}
		}
	}()
	wg.Wait()
	prod.Deregister() // sole signaler out: drain
	if stale > 0 {
		t.Errorf("%d stale reads: consumer saw a slot before the producer's signal ordered it", stale)
	}
	if observed == 0 {
		t.Error("consumer never completed an ordered read")
	}
	if got := p.Epoch(); got != phases+1 {
		t.Errorf("epoch = %d, want %d (drain publishes one extra)", got, phases+1)
	}
}

// TestPhaserDeregisterCompletesPhase: a departing signaler's pending
// obligation disappears, completing the phase for the others; the last
// signaler out drains the phaser.
func TestPhaserDeregisterCompletesPhase(t *testing.T) {
	p := NewPhaser()
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)

	ph := a.Arrive()
	if p.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", p.Epoch())
	}
	b.Deregister()
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d after departure, want 1", p.Epoch())
	}
	a.Wait(ph)

	a.Deregister() // last signaler: drain
	if p.Epoch() != 2 {
		t.Fatalf("epoch = %d after drain, want 2", p.Epoch())
	}
	if p.Members() != 0 || p.Signalers() != 0 {
		t.Errorf("members = %d, signalers = %d after drain", p.Members(), p.Signalers())
	}
	if s := p.StatsSnapshot(); s.Syncs != p.Epoch() {
		t.Errorf("Syncs = %d, Epoch = %d", s.Syncs, p.Epoch())
	}
}

// TestPhaserDeregisterAheadProducer: deregistering a producer whose
// signals ran ahead keeps the ready accounting straight for the
// remaining signalers.
func TestPhaserDeregisterAheadProducer(t *testing.T) {
	p := NewPhaser()
	a := p.Register(SignalWait)
	b := p.Register(SignalOnly)
	for i := 0; i < 5; i++ {
		b.Arrive()
	}
	b.Deregister() // ahead by 5; its banked signals vanish with it
	if p.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0 (A never signaled)", p.Epoch())
	}
	// A is now the sole signaler: each arrival completes a phase.
	a.Wait(a.Arrive())
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", p.Epoch())
	}
}

// TestPhaserPanics: protocol violations fail loudly, like the other
// barriers here, and a recovered one has applied nothing — not even an
// arrival in the stats.
func TestPhaserPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	countsNothing := func(name string, p *Phaser, f func()) {
		t.Helper()
		before := p.StatsSnapshot()
		expectPanic(name, f)
		if after := p.StatsSnapshot(); after.Arrivals != before.Arrivals || after.Syncs != before.Syncs {
			t.Errorf("%s: arrivals %d -> %d, syncs %d -> %d after the recovered panic",
				name, before.Arrivals, after.Arrivals, before.Syncs, after.Syncs)
		}
	}
	expectPanic("invalid mode", func() { NewPhaser().Register(PhaserMode(42)) })
	expectPanic("wait on signal-only", func() {
		p := NewPhaser()
		p.Register(SignalWait) // keeps the phaser live
		m := p.Register(SignalOnly)
		m.Wait(m.Arrive())
	})
	expectPanic("double deregister", func() {
		p := NewPhaser()
		p.Register(SignalWait)
		m := p.Register(SignalWait)
		m.Deregister()
		m.Deregister()
	})
	expectPanic("register on drained", func() {
		p := NewPhaser()
		p.Register(SignalWait).Deregister()
		p.Register(SignalWait)
	})

	p := NewPhaser()
	a := p.Register(SignalWait)
	gone := p.Register(SignalWait)
	gone.Deregister()
	countsNothing("arrive after deregister", p, func() { gone.Arrive() })
	ahead := p.Register(SignalOnly)
	ahead.next = p.Epoch() + phase.MaxAhead // as if it had banked the whole bound
	countsNothing("arrive past phase.MaxAhead", p, func() { ahead.Arrive() })
	ahead.next = p.Epoch() // it banked nothing after all
	ahead.Deregister()
	consumer := p.Register(WaitOnly)
	a.Deregister() // the last signaler: drain
	countsNothing("arrive on drained", p, func() { consumer.Arrive() })
}

// TestPhaserModeString covers the mode labels.
func TestPhaserModeString(t *testing.T) {
	for mode, want := range map[PhaserMode]string{
		SignalWait:     "signal-wait",
		SignalOnly:     "signal-only",
		WaitOnly:       "wait-only",
		PhaserMode(99): "PhaserMode(99)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("PhaserMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}
