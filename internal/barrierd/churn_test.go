package barrierd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// TestChurnNoEarlyReleaseNoDeadlock stresses dynamic membership on the
// concurrent ChanNet transport (run under -race by make verify): stable
// SignalWait members drive epochs while churners join and leave
// mid-epoch in every phaser mode. Two invariants:
//
//   - No early release: epoch e of a group cannot be released anywhere
//     before every stable signaler has sent its arrival for e. Each
//     stable conn is a necessary participant, so observing
//     Released(g) >= e before it sends arrive(e) would prove the
//     coordinator released early.
//
//   - No deadlock: every stable conn finishes all epochs, and a final
//     drain (all signalers leave) releases a WaitOnly observer, within
//     the test deadline.
func TestChurnNoEarlyReleaseNoDeadlock(t *testing.T) {
	nw := transport.NewChanNet(0)
	defer nw.Close()
	cfg := RealtimeConfig()
	cfg.Shards = 4
	cfg.FlushDelay = int64(50 * time.Microsecond)
	cfg.Watchdog = 0 // churn stalls are expected transients; no reports
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const (
		groups  = 3
		stable  = 2         // stable SignalWait conns (one client each per group)
		churner = 4         // churning conns
		epochs  = int64(30) // minimum epochs each stable conn drives
	)
	errs := make(chan error, stable+churner)
	churnDone := make(chan error, churner)

	// Stable conns drive epochs until the churners finish, then agree on
	// a stop epoch (stable drivers stopping early would strand a churner
	// waiting on a future epoch). Positions differ by at most one epoch
	// — completing epoch k needs every stable arrival for k — so a stop
	// epoch two past any observed position is past-proof for all.
	var pos [stable]atomic.Int64
	var stopEpoch atomic.Int64
	stopEpoch.Store(-1)

	// Nothing arrives, and no churner joins, until every stable conn has
	// its JoinOK in every group. A lone early member would complete
	// epoch 0 by itself, and a signal-only churner that joined and left
	// first would drain the group for good — both correct coordinator
	// behaviour that the early-release probe would misread.
	var stableJoined sync.WaitGroup
	stableJoined.Add(stable)

	// Stable drivers: client id = conn index, registered in every group.
	var stableConns []*Conn
	for i := 0; i < stable; i++ {
		c, err := Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		stableConns = append(stableConns, c)
		go func(i int, c *Conn) {
			id := []uint64{uint64(i)}
			for g := uint32(0); g < groups; g++ {
				c.JoinBatch(g, core.SignalWait, id, nil)
			}
			for g := uint32(0); g < groups; g++ {
				c.AwaitJoined(g)
			}
			stableJoined.Done()
			stableJoined.Wait()
			for e := int64(0); ; e++ {
				pos[i].Store(e)
				if s := stopEpoch.Load(); s >= 0 && e > s {
					break
				}
				for g := uint32(0); g < groups; g++ {
					// The early-release probe: this conn has not sent
					// arrive(e) yet, and release e needs it.
					if rel := c.Released(g); rel >= e {
						errs <- fmt.Errorf("early release: conn %d group %d released=%d before its arrive(%d)", i, g, rel, e)
						return
					}
					c.ArriveBatch(g, e, id)
				}
				for g := uint32(0); g < groups; g++ {
					if rel := c.WaitReleased(g, e); rel < e {
						errs <- fmt.Errorf("conn %d group %d: bad release %d", i, g, rel)
						return
					}
				}
			}
			errs <- nil
		}(i, c)
	}

	// Once every churner reports, publish the stop epoch.
	go func() {
		for i := 0; i < churner; i++ {
			errs <- <-churnDone
		}
		stop := epochs
		for i := range pos {
			if p := pos[i].Load() + 2; p > stop {
				stop = p
			}
		}
		stopEpoch.Store(stop)
	}()

	// Churners: join mid-stream in a rotating mode, participate
	// briefly, leave mid-epoch. SignalOnly churners must arrive for
	// every epoch from their join epoch until they leave (they gate
	// completion while registered); WaitOnly churners just observe.
	for i := 0; i < churner; i++ {
		c, err := Dial(nw, transport.ConnAddrBase+transport.Addr(stable+i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func(i int, c *Conn) {
			mode := []core.PhaserMode{core.SignalOnly, core.WaitOnly, core.SignalWait}[i%3]
			id := []uint64{uint64(1000 + i)}
			g := uint32(i % groups)
			stableJoined.Wait()
			for round := 0; round < 6; round++ {
				c.JoinBatch(g, mode, id, nil)
				e := c.AwaitJoined(g)
				if mode == core.WaitOnly {
					// Observe one release (or drain) then leave.
					c.WaitReleased(g, e)
				} else {
					// Signal a handful of epochs, leaving mid-epoch on
					// the last (join..leave window straddles epochs).
					for k := int64(0); k < 3; k++ {
						c.ArriveBatch(g, e+k, id)
						if k < 2 {
							c.WaitReleased(g, e+k)
						}
					}
				}
				c.LeaveBatch(g, id)
			}
			churnDone <- nil
		}(i, c)
	}

	deadline := time.After(60 * time.Second)
	for i := 0; i < stable+churner; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			for _, c := range stableConns {
				for g := uint32(0); g < groups; g++ {
					t.Logf("stable conn %d group %d released=%d", c.Addr(), g, c.Released(g))
				}
			}
			t.Fatal("deadlock: churn workload did not complete")
		}
	}

	// Drain: a fresh WaitOnly observer, then every remaining signaler
	// leaves; the observer must release via drain.
	obs, err := Dial(nw, transport.ConnAddrBase+100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	var wg sync.WaitGroup
	for g := uint32(0); g < groups; g++ {
		obs.JoinBatch(g, core.WaitOnly, []uint64{9999}, nil)
	}
	for g := uint32(0); g < groups; g++ {
		obs.AwaitJoined(g)
	}
	for i, c := range stableConns {
		for g := uint32(0); g < groups; g++ {
			c.LeaveBatch(g, []uint64{uint64(i)})
		}
	}
	for g := uint32(0); g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			obs.WaitReleased(g, DrainEpoch)
		}()
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		for g := uint32(0); g < groups; g++ {
			t.Logf("observer group %d released=%d", g, obs.Released(g))
		}
		t.Fatal("groups did not drain after all signalers left")
	}
}
