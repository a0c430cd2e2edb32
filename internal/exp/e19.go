package exp

import (
	"fmt"
	"sort"

	"fuzzybarrier/internal/barrierd"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/trace"
	"fuzzybarrier/internal/transport"
)

// E19 parameters: the barrierd epoch service on the deterministic lossy
// SimNet, driven at a sweep of offered epoch rates. Each cell is one
// independent sim — same seed, same fault model — differing only in the
// gap (virtual ticks) between offered epoch start times. The load
// generator's methodology (cmd/barrierload) is reproduced in virtual
// time: epoch e is *offered* at t0 + e*gap, its arrivals are sent as
// soon as both that time has passed and epoch e-1 has completed, and
// its latency sample counts from the offered time — so when the offered
// rate exceeds service capacity the backlog shows up as queueing delay,
// the classic latency-vs-load hockey stick. gap = 0 is the closed loop
// (arrivals chase completions), the throughput ceiling.
//
// Wall-clock numbers for the same methodology on the real transports
// come from the svc-* workloads of bench/run.sh; this table is the
// deterministic, byte-identical shape of the curve.
const (
	e19Shards     = 4
	e19Conns      = 4
	e19Groups     = 2
	e19ClientsPer = 32 // virtual clients per (conn, group)
	e19Epochs     = int64(30)
	e19Latency    = 2
	e19Jitter     = 5
	e19Seed       = 7
)

// e19Gaps sweeps offered inter-epoch gaps from well under the service
// time (overload) to well over it (underload); 0 = closed loop.
var e19Gaps = []int64{0, 25, 50, 100, 200, 400}

// E19ServiceLatency measures barrierd epoch-completion latency versus
// offered load. Expected shapes, checked with slack: achieved epoch
// rate is non-increasing as the offered gap grows (closed loop is the
// ceiling; deep underload achieves ~1/gap); p99 latency at heavy
// overload (smallest non-zero gap) is at least the deeply-underloaded
// p99 (backlog only adds delay); and the lossy fault model is actually
// exercised (drops and retransmissions both non-zero in every cell).
func E19ServiceLatency() (*trace.Table, error) {
	t := trace.NewTable(
		fmt.Sprintf("E19: barrierd epoch latency vs offered load, %d clients, %d shards, lossy sim",
			e19Conns*e19Groups*e19ClientsPer, e19Shards),
		"offered-gap", "achieved-gap", "p50-ticks", "p99-ticks", "retransmits", "net-dropped",
	)
	cells, err := sweepRun(len(e19Gaps), func(i int) (e19Cell, error) {
		cell, err := e19Run(e19Gaps[i])
		if err != nil {
			return e19Cell{}, fmt.Errorf("E19 gap=%d: %w", e19Gaps[i], err)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i, gap := range e19Gaps {
		c := cells[i]
		t.AddRow(gap, fmt.Sprintf("%.1f", c.achievedGap), fmt.Sprintf("%.1f", c.p50),
			fmt.Sprintf("%.1f", c.p99), c.retransmits, c.netDropped)
		if c.retransmits == 0 || c.netDropped == 0 {
			t.AddNote("WARNING: gap=%d: fault model idle (retransmits=%d dropped=%d)", gap, c.retransmits, c.netDropped)
		}
		// Slack: overloaded cells all achieve ~the service time, but
		// each gap is an independent sim whose event interleavings
		// differ by a few ticks.
		if i > 0 && c.achievedGap+5 < cells[i-1].achievedGap {
			t.AddNote("WARNING: achieved gap shrank as offered gap grew (%d: %.1f -> %d: %.1f)",
				e19Gaps[i-1], cells[i-1].achievedGap, gap, c.achievedGap)
		}
	}
	if over, under := cells[1], cells[len(cells)-1]; over.p99 < under.p99 {
		t.AddNote("WARNING: overload p99 (%.1f at gap=%d) below underload p99 (%.1f at gap=%d)",
			over.p99, e19Gaps[1], under.p99, e19Gaps[len(e19Gaps)-1])
	}
	t.AddNote("latency counts from the offered epoch time: offered gaps under the service time accumulate backlog, so p50/p99 grow without bound with epochs driven — the saturation side of the curve")
	t.AddNote("gap=0 is the closed loop (arrivals chase completions): the achieved-gap floor is the service time of one epoch through join-shard combine and release fan-out")
	t.AddNote("wall-clock for the same methodology on the channel and UDP transports: bench/run.sh workloads svc-1m, svc-small and svc-udp-churn; cmd/barrierload for sweeps")
	return t, nil
}

// e19Cell is one offered-load measurement.
type e19Cell struct {
	achievedGap float64 // elapsed ticks per epoch actually sustained
	p50, p99    float64 // per-(group, epoch) completion latency, ticks
	retransmits int64   // client-side, all conns
	netDropped  int64   // datagrams the fault model dropped
}

// e19Run drives e19Epochs epochs at one offered gap on a fresh sim.
// All driver state is shared without locks: SimNet dispatch is
// single-threaded, so every callback below runs on the one sim
// goroutine (this drive is sim-only; the real-time transports use
// cmd/barrierload's blocking loop instead).
func e19Run(gap int64) (e19Cell, error) {
	nw := transport.NewSimNet(transport.SimConfig{
		Latency: e19Latency, Jitter: e19Jitter,
		DropRate: 0.1, DupRate: 0.03, Seed: e19Seed,
	})
	cfg := barrierd.SimConfig(e19Latency, e19Jitter)
	cfg.Shards = e19Shards
	svc, err := barrierd.Start(nw, cfg, nil, nil)
	if err != nil {
		return e19Cell{}, err
	}
	defer svc.Close()

	cs := make([]*barrierd.Conn, e19Conns)
	for i := range cs {
		c, err := barrierd.Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			return e19Cell{}, err
		}
		cs[i] = c
	}
	ids := func(i, g int) []uint64 {
		out := make([]uint64, e19ClientsPer)
		for k := range out {
			out[k] = uint64((g*e19Conns+i)*e19ClientsPer + k)
		}
		return out
	}

	var (
		t0        int64
		joinsLeft = e19Conns * e19Groups
		sched     = make(map[int64]int64) // epoch -> offered start tick
		started   int64                   // epochs finished (first ... started-1 complete)
		samples   []float64
		doneAt    = int64(-1)
	)
	var startEpoch func(e int64)
	launch := func(e int64) {
		now := cs[0].Now()
		if gap > 0 {
			sched[e] = t0 + e*gap // offered time, even if we run late
		} else {
			sched[e] = now
		}
		for i, c := range cs {
			for g := 0; g < e19Groups; g++ {
				c.ArriveBatch(uint32(g), e, ids(i, g))
			}
		}
		// Completion per group: every conn has observed the release.
		for g := 0; g < e19Groups; g++ {
			g := g
			left := e19Conns
			for _, c := range cs {
				c := c
				c.WhenReleased(uint32(g), e, func(int64) {
					if left--; left > 0 {
						return
					}
					samples = append(samples, float64(c.Now()-sched[e]))
					if started++; started == e19Epochs*int64(e19Groups) {
						doneAt = c.Now()
					} else if started%int64(e19Groups) == 0 {
						startEpoch(e + 1)
					}
				})
			}
		}
	}
	startEpoch = func(e int64) {
		if e >= e19Epochs {
			return
		}
		if gap > 0 {
			if wait := t0 + e*gap - cs[0].Now(); wait > 0 {
				cs[0].After(wait, func() { launch(e) })
				return
			}
		}
		launch(e)
	}
	for i, c := range cs {
		for g := 0; g < e19Groups; g++ {
			c.JoinBatch(uint32(g), core.SignalWait, ids(i, g), func(int64) {
				if joinsLeft--; joinsLeft == 0 {
					t0 = cs[0].Now()
					startEpoch(0)
				}
			})
		}
	}
	if _, ok := nw.Run(50_000_000, func() bool { return doneAt >= 0 }); !ok {
		return e19Cell{}, fmt.Errorf("sim did not complete %d epochs (done %d group-epochs)", e19Epochs, started)
	}
	sort.Float64s(samples)
	cell := e19Cell{
		achievedGap: float64(doneAt-t0) / float64(e19Epochs),
		p50:         stats.Percentile(samples, 50),
		p99:         stats.Percentile(samples, 99),
		netDropped:  nw.Dropped,
	}
	for _, c := range cs {
		cell.retransmits += c.TransportStats().Retransmits
	}
	return cell, nil
}
