package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDynamicBarrierEarlyLeaversDontBlockOthers(t *testing.T) {
	// Workers process different iteration counts (a non-divisible
	// workload); each leaves when done. The survivors must keep
	// synchronizing among themselves — no deadlock, no waiting for the
	// departed.
	counts := []int{2, 5, 9, 9}
	b := NewDynamicBarrier(len(counts))
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w, n := range counts {
		wg.Add(1)
		go func(id, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ph := b.Arrive()
				b.Wait(ph)
			}
			b.ArriveAndLeave()
		}(w, n)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dynamic barrier deadlocked with early leavers")
	}
	if got := b.Members(); got != 0 {
		t.Errorf("members after drain = %d, want 0", got)
	}
}

func TestDynamicBarrierLastLeaverCompletesPhase(t *testing.T) {
	b := NewDynamicBarrier(2)
	ph := b.Arrive() // member 1 arrives and would wait
	if b.TryWait(ph) {
		t.Fatal("phase complete before second member acted")
	}
	b.ArriveAndLeave() // member 2 departs: completes the phase for member 1
	if !b.TryWait(ph) {
		t.Fatal("departure should complete the phase")
	}
	if b.Members() != 1 {
		t.Errorf("members = %d, want 1", b.Members())
	}
}

func TestDynamicBarrierRegisterMidPhase(t *testing.T) {
	b := NewDynamicBarrier(1)
	b.Register() // second member joins before anyone arrives
	if b.Members() != 2 {
		t.Fatalf("members = %d, want 2", b.Members())
	}
	ph := b.Arrive()
	if b.TryWait(ph) {
		t.Fatal("one arrival of two should not complete the phase")
	}
	done := make(chan struct{})
	go func() {
		b.Await() // the new member participates
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("phase did not complete after second arrival")
	}
	b.Wait(ph)
}

func TestDynamicBarrierSpawnJoinPattern(t *testing.T) {
	// The Section 5 pattern on one shared barrier: a parent spawns
	// children over time; each Registers before starting and leaves when
	// finished.
	b := NewDynamicBarrier(1) // parent only
	var wg sync.WaitGroup
	child := func(phases int) {
		defer wg.Done()
		for i := 0; i < phases; i++ {
			ph := b.Arrive()
			b.Wait(ph)
		}
		b.ArriveAndLeave()
	}
	runN(t, b.split(), 1, func(int) {
		for round := 0; round < 3; round++ {
			b.Register()
			wg.Add(1)
			go child(2 + round)
			// Parent keeps synchronizing with whatever membership exists.
			ph := b.Arrive()
			b.Wait(ph)
		}
		// Parent drains its own participation, then joins its children.
		for i := 0; i < 6; i++ {
			ph := b.Arrive()
			b.Wait(ph)
		}
		b.ArriveAndLeave()
		wg.Wait()
	})
}

func TestDynamicBarrierPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero initial", func() { NewDynamicBarrier(0) })
	mustPanic("drained arrive", func() {
		b := NewDynamicBarrier(1)
		b.ArriveAndLeave()
		b.Arrive()
	})
	mustPanic("drained register", func() {
		b := NewDynamicBarrier(1)
		b.ArriveAndLeave()
		b.Register()
	})
	mustPanic("drained leave", func() {
		b := NewDynamicBarrier(1)
		b.ArriveAndLeave()
		b.ArriveAndLeave()
	})

	// A recovered misuse panic applied nothing, so it counts no arrival.
	b := NewDynamicBarrier(2)
	b.Arrive()
	b.ArriveAndLeave()
	b.ArriveAndLeave() // drained: three arrivals, one phase and the drain's
	for name, misuse := range map[string]func(){"drained arrive": func() { b.Arrive() }, "drained leave": b.ArriveAndLeave} {
		mustPanic(name, misuse)
		if s := b.StatsSnapshot(); s.Arrivals != 3 || s.Syncs != 2 {
			t.Errorf("%s: arrivals = %d, syncs = %d after the recovered panic, want 3, 2", name, s.Arrivals, s.Syncs)
		}
	}
}

// TestDynamicBarrierProperty: random per-worker phase counts with leaves
// at the end always drain without deadlock, and the total completed
// epochs is at least the maximum phase count (every phase some member
// waited for did complete).
func TestDynamicBarrierProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, 0, 6)
		for _, r := range raw {
			counts = append(counts, int(r%12)+1)
			if len(counts) == 6 {
				break
			}
		}
		b := NewDynamicBarrier(len(counts))
		var wg sync.WaitGroup
		for _, n := range counts {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					ph := b.Arrive()
					b.Wait(ph)
				}
				b.ArriveAndLeave()
			}(n)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return false
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return b.Members() == 0 && b.Epoch() >= int64(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
