package barrierd

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// simScenario drives a full multi-group, multi-connection workload on a
// SimNet: conns connections each own clients in every group, all join,
// then chain epochs 0..epochs-1 through WhenReleased callbacks. It
// returns the net (for transcript inspection) and fails the test if the
// workload doesn't complete within the tick budget.
func simScenario(t *testing.T, simCfg transport.SimConfig, shards, conns, groups, clientsPer int, epochs int64) *transport.SimNet {
	t.Helper()
	nw := transport.NewSimNet(simCfg)
	cfg := SimConfig(simCfg.Latency, simCfg.Jitter)
	cfg.Shards = shards
	svc, err := Start(nw, cfg, nil, nw)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var cs []*Conn
	for i := 0; i < conns; i++ {
		c, err := Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	// Client ids: conn i owns ids [i*clientsPer, (i+1)*clientsPer) in
	// every group.
	ids := func(i int) []uint64 {
		out := make([]uint64, clientsPer)
		for k := range out {
			out[k] = uint64(i*clientsPer + k)
		}
		return out
	}
	for i, c := range cs {
		for g := 0; g < groups; g++ {
			g := uint32(g)
			c, i := c, i
			var step func(rel int64)
			step = func(rel int64) {
				next := rel + 1
				if next >= epochs {
					return
				}
				c.ArriveBatch(g, next, ids(i))
				c.WhenReleased(g, next, step)
			}
			c.JoinBatch(g, core.SignalWait, ids(i), func(epoch int64) {
				c.ArriveBatch(g, epoch, ids(i))
				c.WhenReleased(g, epoch, step)
			})
		}
	}
	done := func() bool {
		for _, c := range cs {
			for g := 0; g < groups; g++ {
				if c.Released(uint32(g)) < epochs-1 {
					return false
				}
			}
		}
		return true
	}
	if _, ok := nw.Run(100_000_000, done); !ok {
		for _, c := range cs {
			for g := 0; g < groups; g++ {
				t.Logf("conn %d group %d released=%d", c.Addr(), g, c.Released(uint32(g)))
			}
		}
		t.Fatal("sim workload did not complete")
	}
	return nw
}

func TestSimCompletesEpochsLossyLinks(t *testing.T) {
	nw := simScenario(t, transport.SimConfig{
		Latency: 2, Jitter: 5, DropRate: 0.15, DupRate: 0.05, Seed: 11,
	}, 4, 4, 3, 8, 20)
	if nw.Dropped == 0 {
		t.Fatal("fault model idle — loss path not exercised")
	}
}

// TestBarrierdSimByteIdenticalTranscript is the acceptance guarantee:
// the whole barrierd stack (shards, combine tree, phaser state, client
// conns) over the extracted reliability layer replays byte-identically
// on the simulator — same seed, same transcript, including drops,
// duplicates and retransmissions.
func TestBarrierdSimByteIdenticalTranscript(t *testing.T) {
	run := func() string {
		nw := simScenario(t, transport.SimConfig{
			Latency: 2, Jitter: 5, DropRate: 0.2, DupRate: 0.08, Seed: 42, LogEvents: true,
		}, 4, 3, 2, 5, 12)
		return strings.Join(nw.EventLog(), "\n")
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty transcript")
	}
	if a != b {
		t.Fatal("same seed produced different barrierd transcripts")
	}
	for _, want := range []string{"drop", "retransmit", "join", "arrive", "release"} {
		if !strings.Contains(a, want) {
			t.Fatalf("transcript never mentions %q — scenario not exercising it", want)
		}
	}
}

// TestSimTranscriptPins pins two whole-stack transcripts as constants:
// a change to SimNet's event core (or to barrierd) that reorders a
// single dispatch, RNG draw or log line changes these hashes, where the
// run-twice test above would still pass. The hash is FNV-1a-64 of
// strings.Join(EventLog(), "\n").
func TestSimTranscriptPins(t *testing.T) {
	lossy := transport.SimConfig{Latency: 2, Jitter: 5, DropRate: 0.2, DupRate: 0.08, LogEvents: true}
	for _, pin := range []struct {
		seed                      uint64
		conns, groups, clientsPer int
		epochs                    int64
		hash                      string
		lines                     int
		tick                      int64
	}{
		{42, 3, 2, 5, 12, "4e0150b0b9b68a21", 990, 1113}, // TestBarrierdSimByteIdenticalTranscript's scenario
		{7, 16, 8, 8, 40, "4c2bd20e53cc8e5a", 60301, 5983},
	} {
		cfg := lossy
		cfg.Seed = pin.seed
		nw := simScenario(t, cfg, 4, pin.conns, pin.groups, pin.clientsPer, pin.epochs)
		h := fnv.New64a()
		h.Write([]byte(strings.Join(nw.EventLog(), "\n")))
		got := fmt.Sprintf("%016x", h.Sum64())
		if got != pin.hash || len(nw.EventLog()) != pin.lines || nw.Now() != pin.tick {
			t.Errorf("seed %d %dx%dx%d: transcript %s, %d lines, final tick %d; pinned %s, %d, %d",
				pin.seed, pin.conns, pin.groups, pin.epochs, got, len(nw.EventLog()), nw.Now(), pin.hash, pin.lines, pin.tick)
		}
	}
}

// TestEpochsAcrossTransports runs the same coordinator + client code,
// unmodified, over all three transports.
func TestEpochsAcrossTransports(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		simScenario(t, transport.SimConfig{Latency: 1, Jitter: 2, Seed: 3}, 4, 3, 2, 4, 15)
	})
	realtime := func(t *testing.T, nw transport.Network) {
		cfg := RealtimeConfig()
		cfg.Shards = 4
		cfg.FlushDelay = int64(50 * time.Microsecond)
		svc, err := Start(nw, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		const conns, groups, clientsPer, epochs = 3, 2, 4, 15
		errs := make(chan error, conns)
		for i := 0; i < conns; i++ {
			c, err := Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			go func(i int, c *Conn) {
				ids := make([]uint64, clientsPer)
				for k := range ids {
					ids[k] = uint64(i*clientsPer + k)
				}
				for g := uint32(0); g < groups; g++ {
					c.JoinBatch(g, core.SignalWait, ids, nil)
				}
				for g := uint32(0); g < groups; g++ {
					c.AwaitJoined(g)
				}
				for e := int64(0); e < epochs; e++ {
					for g := uint32(0); g < groups; g++ {
						c.ArriveBatch(g, e, ids)
					}
					for g := uint32(0); g < groups; g++ {
						if rel := c.WaitReleased(g, e); rel < e {
							errs <- fmt.Errorf("conn %d group %d: released %d < %d", i, g, rel, e)
							return
						}
					}
				}
				errs <- nil
			}(i, c)
		}
		for i := 0; i < conns; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("transport run timed out")
			}
		}
	}
	t.Run("chan", func(t *testing.T) {
		nw := transport.NewChanNet(0)
		defer nw.Close()
		realtime(t, nw)
	})
	t.Run("udp", func(t *testing.T) {
		nw := transport.NewUDPNet(0)
		defer nw.Close()
		realtime(t, nw)
	})
}

// TestWatchdogReportsMissingArrival: a group with one member that never
// arrives must produce a StuckReport whose Why names the child that is
// short and by how much, and Outstanding on the connection under it then
// names the client: the two steps of the drill-down.
func TestWatchdogReportsMissingArrival(t *testing.T) {
	nw := transport.NewSimNet(transport.SimConfig{Latency: 1, Seed: 1})
	cfg := SimConfig(1, 0)
	cfg.Shards = 2
	var reports []StuckReport
	svc, err := Start(nw, cfg, func(sr StuckReport) { reports = append(reports, sr) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.JoinBatch(1, core.SignalWait, []uint64{10, 11}, func(epoch int64) {
		c.ArriveBatch(1, epoch, []uint64{10}) // client 11 never arrives
	})
	nw.Run(cfg.Watchdog*10, func() bool { return len(reports) > 0 })
	if len(reports) == 0 {
		t.Fatal("watchdog never fired for a stuck group")
	}
	sr := reports[0]
	if sr.Group != 1 || sr.Epoch != 0 {
		t.Fatalf("bad report target: %+v", sr)
	}
	joined := strings.Join(sr.Why, "; ")
	if !strings.Contains(joined, "waiting-arrivals: 1 of 2 signalers outstanding at epoch 0 (short: ") || !strings.Contains(joined, " ×1)") {
		t.Fatalf("Why does not name the short child: %q", joined)
	}
	if e, ids := c.Outstanding(1); e != 0 || !slices.Equal(ids, []uint64{11}) {
		t.Fatalf("Outstanding = epoch %d, clients %v; want epoch 0, [11]", e, ids)
	}
	if c.Released(1) >= 0 {
		t.Fatal("epoch released despite a missing arrival")
	}
}

// TestWatchdogIdleGroupIsNotStuck: members that completed their epochs
// and simply stopped arriving leave the group idle — nobody has signaled
// the current epoch, nobody waits on it — and the watchdog must stay
// quiet however long that lasts. The moment one of them arrives alone,
// the group is stuck on the other, and the drill-down must name it.
func TestWatchdogIdleGroupIsNotStuck(t *testing.T) {
	nw := transport.NewSimNet(transport.SimConfig{Latency: 1, Seed: 1})
	cfg := SimConfig(1, 0)
	cfg.Shards = 2
	var reports []StuckReport
	svc, err := Start(nw, cfg, func(sr StuckReport) { reports = append(reports, sr) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const g, epochs = 1, 5
	both := []uint64{10, 11}
	var step func(rel int64)
	step = func(rel int64) {
		if rel+1 < epochs {
			c.ArriveBatch(g, rel+1, both)
			c.WhenReleased(g, rel+1, step)
		}
	}
	c.JoinBatch(g, core.SignalWait, both, func(epoch int64) { step(epoch - 1) })
	if _, ok := nw.Run(cfg.Watchdog, func() bool { return c.Released(g) == epochs-1 }); !ok {
		t.Fatalf("group did not complete %d epochs: released=%d", epochs, c.Released(g))
	}
	nw.Run(nw.Now()+3*cfg.Watchdog, nil)
	if len(reports) > 0 {
		t.Fatalf("idle group reported stuck %d times, first: %+v", len(reports), reports[0])
	}
	c.ArriveBatch(g, epochs, []uint64{10}) // client 11 stays away
	nw.Run(nw.Now()+3*cfg.Watchdog, func() bool { return len(reports) > 0 })
	if len(reports) == 0 {
		t.Fatal("watchdog never fired once a member was waiting on the other")
	}
	sr := reports[0]
	why := strings.Join(sr.Why, "; ")
	_, missing := c.Outstanding(g)
	if sr.Group != g || sr.Epoch != epochs || !strings.Contains(why, "waiting-arrivals: 1 of 2") || fmt.Sprint(missing) != "[11]" {
		t.Fatalf("report and Outstanding %v do not name client 11 at epoch %d: %+v", missing, epochs, sr)
	}
}

// TestPhaserModesAndDrain: SignalOnly members gate epochs without
// waiting, WaitOnly members never gate, and the last signaler's leave
// drains the group, releasing all waiters.
func TestPhaserModesAndDrain(t *testing.T) {
	nw := transport.NewSimNet(transport.SimConfig{Latency: 1, Jitter: 1, Seed: 9})
	cfg := SimConfig(1, 1)
	cfg.Shards = 3
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	prod, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Dial(nw, transport.ConnAddrBase+1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const g = 5
	// A WaitOnly consumer alone must not see epochs complete.
	cons.JoinBatch(g, core.WaitOnly, []uint64{100}, nil)
	nw.Run(5000, nil)
	if cons.Released(g) >= 0 {
		t.Fatalf("epoch released with no signalers registered: %d", cons.Released(g))
	}
	// A SignalOnly producer drives epochs 0..2; the consumer observes
	// releases without ever arriving.
	prod.JoinBatch(g, core.SignalOnly, []uint64{1}, func(epoch int64) {
		prod.ArriveBatch(g, epoch+2, []uint64{1}) // signal three epochs at once
	})
	if _, ok := nw.Run(200_000, func() bool { return cons.Released(g) >= 2 }); !ok {
		t.Fatalf("consumer saw released=%d, want >= 2", cons.Released(g))
	}
	if cons.Released(g) >= DrainEpoch {
		t.Fatal("drained before the signaler left")
	}
	// Producer leaves: group drains, waiters at any epoch release.
	prod.LeaveBatch(g, []uint64{1})
	if _, ok := nw.Run(400_000, func() bool { return cons.Released(g) >= DrainEpoch }); !ok {
		t.Fatalf("group did not drain after last signaler left: released=%d", cons.Released(g))
	}
	// Drain is terminal: the home refuses a later join, which is never
	// confirmed.
	home := svc.Shards[Ring{Shards: cfg.Shards}.Home(g)]
	rejected, confirmed := home.Rejected, false
	prod.JoinBatch(g, core.SignalWait, []uint64{2}, func(int64) { confirmed = true })
	nw.Run(nw.Now()+5000, nil)
	if confirmed || home.Rejected != rejected+1 {
		t.Fatalf("join after the drain: confirmed %v, home Rejected %d -> %d", confirmed, rejected, home.Rejected)
	}
	// A mode that is none of the three never leaves the Conn.
	defer func() {
		if recover() == nil {
			t.Fatal("JoinBatch took phaser mode 7")
		}
	}()
	prod.JoinBatch(g, core.PhaserMode(7), []uint64{3}, nil)
}
