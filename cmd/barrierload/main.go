// Command barrierload is the barrierd load generator: it multiplexes
// many simulated clients over a handful of connections, drives epochs
// at an offered rate, and reports epoch-completion latency percentiles
// versus load. It can self-host the service in the same process (the
// in-process channel transport scales past a million clients; loopback
// UDP past ten thousand) or drive an external barrierd over UDP.
//
// Usage:
//
//	barrierload                                      # 100k clients, in-process
//	barrierload -clients 1000000 -epochs 6           # the million-client run
//	barrierload -transport udp -clients 10000        # self-hosted loopback UDP
//	barrierload -transport udp -connect 127.0.0.1:9700,127.0.0.1:9701
//	barrierload -rates 50,200,800                    # offered-load sweep
//
// Flags:
//
//	-transport T   inproc (channel transport, default) or udp
//	-connect LIST  comma-separated shard addresses of an external
//	               barrierd (UDP only; default self-host)
//	-clients N     total virtual clients (default 100000)
//	-groups N      barrier groups; clients split evenly (default 4)
//	-conns N       client connections; each carries clients/conns
//	               virtual clients (default 16)
//	-shards N      shards when self-hosting (default 4)
//	-epochs N      epochs to drive per rate point (default 6)
//	-rates LIST    offered epoch rates per second, comma-separated;
//	               0 = closed loop, as fast as completions allow
//	               (default "0")
//	-json          emit the report as JSON to stdout
//
// The report's p50/p99 are over per-(group, epoch) completion samples:
// an epoch's sample is the time from its (scheduled, when pacing; else
// actual) start to the moment every connection has observed its
// release.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fuzzybarrier/internal/barrierd"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/stats"
	"fuzzybarrier/internal/transport"
)

// drainTimeout bounds the wait, after the last LeaveBatch, for every
// connection to see its groups drain.
const drainTimeout = 3 * time.Second

type ratePoint struct {
	OfferedEpochsPerSec  float64 `json:"offered_eps"` // 0 = closed loop
	AchievedEpochsPerSec float64 `json:"achieved_eps"`
	P50Ms                float64 `json:"p50_ms"`
	P99Ms                float64 `json:"p99_ms"`
	Samples              int     `json:"samples"`
}

type report struct {
	Transport    string      `json:"transport"`
	Clients      int         `json:"clients"`
	Groups       int         `json:"groups"`
	Conns        int         `json:"conns"`
	Shards       int         `json:"shards"`
	Epochs       int         `json:"epochs"`
	MaxProcs     int         `json:"maxprocs"`
	JoinMs       float64     `json:"join_ms"` // time to register every client
	Points       []ratePoint `json:"points"`
	Retransmits  int64       `json:"retransmits"`
	StuckReports int64       `json:"stuck_reports"`
}

func main() {
	transportF := flag.String("transport", "inproc", "inproc or udp")
	connect := flag.String("connect", "", "external shard addresses (udp), comma-separated")
	clients := flag.Int("clients", 100_000, "total virtual clients")
	groups := flag.Int("groups", 4, "barrier groups")
	conns := flag.Int("conns", 16, "client connections")
	shards := flag.Int("shards", 4, "shards when self-hosting")
	epochs := flag.Int("epochs", 6, "epochs per rate point")
	rates := flag.String("rates", "0", "offered epoch rates per second (0 = closed loop)")
	jsonOut := flag.Bool("json", false, "emit JSON report")
	flag.Parse()

	rep, err := run(*transportF, *connect, *clients, *groups, *conns, *shards, *epochs, *rates)
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierload:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "barrierload:", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("barrierload: transport=%s clients=%d groups=%d conns=%d shards=%d maxprocs=%d join=%.1fms\n",
			rep.Transport, rep.Clients, rep.Groups, rep.Conns, rep.Shards, rep.MaxProcs, rep.JoinMs)
		for _, p := range rep.Points {
			fmt.Printf("  offered=%.0f/s achieved=%.1f/s p50=%.2fms p99=%.2fms (%d samples)\n",
				p.OfferedEpochsPerSec, p.AchievedEpochsPerSec, p.P50Ms, p.P99Ms, p.Samples)
		}
	}
}

func run(transportF, connect string, clients, groups, conns, shards, epochs int, rates string) (*report, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"groups", groups}, {"conns", conns}, {"shards", shards}, {"epochs", epochs}} {
		if f.v < 1 {
			return nil, fmt.Errorf("-%s must be >= 1 (got %d)", f.name, f.v)
		}
	}
	if clients < groups*conns {
		return nil, fmt.Errorf("need -clients >= -groups * -conns (got %d < %d)", clients, groups*conns)
	}
	// A stuck report names the children that are short; the second step
	// of the drill-down asks this process's connections which members.
	var stuck int64
	var stuckMu sync.Mutex // guards stuck and cs
	var cs []*barrierd.Conn
	onStuck := func(sr barrierd.StuckReport) {
		stuckMu.Lock()
		defer stuckMu.Unlock()
		stuck++
		fmt.Fprintln(os.Stderr, sr)
		for _, c := range cs {
			if e, ids := c.Outstanding(sr.Group); len(ids) > 0 {
				fmt.Fprintf(os.Stderr, "  conn %d: %d members have not signaled epoch %d, e.g. %v\n", c.Addr(), len(ids), e, ids[:min(len(ids), 4)])
			}
		}
	}

	cfg := barrierd.RealtimeConfig()
	cfg.Shards = shards
	cfg.Watchdog = int64(10 * time.Second)

	var nw transport.Network
	var svc *barrierd.Service
	switch transportF {
	case "inproc":
		cn := transport.NewChanNet(1 << 15)
		defer cn.Close()
		nw = cn
		var err error
		if svc, err = barrierd.Start(nw, cfg, onStuck, nil); err != nil {
			return nil, err
		}
		defer svc.Close()
	case "udp":
		un := transport.NewUDPNet(1 << 15)
		defer un.Close()
		nw = un
		if connect != "" {
			addrs := strings.Split(connect, ",")
			cfg.Shards = len(addrs)
			shards = len(addrs)
			for i, a := range addrs {
				if err := un.Register(barrierd.ShardAddr(i), strings.TrimSpace(a)); err != nil {
					return nil, err
				}
			}
		} else {
			var err error
			if svc, err = barrierd.Start(nw, cfg, onStuck, nil); err != nil {
				return nil, err
			}
			defer svc.Close()
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", transportF)
	}

	// Partition clients: each group gets clients/groups members, each
	// connection carries an equal slice of every group.
	perGroup := clients / groups
	ids := make([][][]uint64, conns) // [conn][group] -> client ids
	for c := range ids {
		ids[c] = make([][]uint64, groups)
	}
	next := uint64(0)
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			c := k % conns
			ids[c][g] = append(ids[c][g], next)
			next++
		}
	}

	for i := 0; i < conns; i++ {
		c, err := barrierd.Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		stuckMu.Lock()
		cs = append(cs, c)
		stuckMu.Unlock()
	}

	// Register everybody (batched joins), in parallel across conns.
	joinStart := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *barrierd.Conn) {
			defer wg.Done()
			for g := 0; g < groups; g++ {
				if len(ids[i][g]) > 0 {
					c.JoinBatch(uint32(g), core.SignalWait, ids[i][g], nil)
				}
			}
			for g := 0; g < groups; g++ {
				if len(ids[i][g]) > 0 {
					c.AwaitJoined(uint32(g))
				}
			}
		}(i, c)
	}
	wg.Wait()
	rep := &report{
		Transport: transportF, Clients: perGroup * groups, Groups: groups,
		Conns: conns, Shards: shards, Epochs: epochs,
		MaxProcs: runtime.GOMAXPROCS(0),
		JoinMs:   float64(time.Since(joinStart).Nanoseconds()) / 1e6,
	}

	epoch := int64(0)
	for _, rs := range strings.Split(rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", rs, err)
		}
		pt, nextEpoch, err := drivePoint(cs, ids, groups, epochs, epoch, rate)
		if err != nil {
			return nil, err
		}
		epoch = nextEpoch
		rep.Points = append(rep.Points, pt)
	}

	for _, c := range cs {
		rep.Retransmits += c.TransportStatsSync().Retransmits
	}

	// Deregister every client so a clean run drains its groups instead
	// of leaving the server's watchdog reporting thousands of abandoned
	// signalers stuck at the next epoch, and wait until every connection
	// has seen its groups' drain release before closing: by then the
	// leave batches (and their retransmissions) have reached the homes.
	var drained sync.WaitGroup
	for i, c := range cs {
		for g := 0; g < groups; g++ {
			if len(ids[i][g]) > 0 {
				drained.Add(1)
				c.WhenReleased(uint32(g), barrierd.DrainEpoch, func(int64) { drained.Done() })
				c.LeaveBatch(uint32(g), ids[i][g])
			}
		}
	}
	done := make(chan struct{})
	go func() { drained.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		var short []string
		for g := 0; g < groups; g++ {
			n := 0 // connections yet to see g drain
			for i, c := range cs {
				if len(ids[i][g]) > 0 && c.Released(uint32(g)) < barrierd.DrainEpoch {
					n++
				}
			}
			if n > 0 {
				short = append(short, fmt.Sprintf("group %d (%d conns)", g, n))
			}
		}
		return nil, fmt.Errorf("not drained %v after the last LeaveBatch: %s", drainTimeout, strings.Join(short, ", "))
	}

	stuckMu.Lock()
	rep.StuckReports = stuck
	stuckMu.Unlock()
	return rep, nil
}

// drivePoint runs epochs at one offered rate, starting at epoch e0, and
// returns the latency point plus the next unused epoch.
func drivePoint(cs []*barrierd.Conn, ids [][][]uint64, groups, epochs int, e0 int64, rate float64) (ratePoint, int64, error) {
	var samples []float64
	t0 := time.Now()
	for k := 0; k < epochs; k++ {
		e := e0 + int64(k)
		sched := t0
		if rate > 0 {
			sched = t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
		} else {
			sched = time.Now()
		}
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *barrierd.Conn) {
				defer wg.Done()
				for g := 0; g < groups; g++ {
					if len(ids[i][g]) > 0 {
						c.ArriveBatch(uint32(g), e, ids[i][g])
					}
				}
			}(i, c)
		}
		wg.Wait()
		// Completion per group: every connection has seen the release.
		for g := 0; g < groups; g++ {
			for _, c := range cs {
				if rel := c.WaitReleased(uint32(g), e); rel < e {
					return ratePoint{}, 0, fmt.Errorf("group %d epoch %d: bad release %d", g, e, rel)
				}
			}
			samples = append(samples, float64(time.Since(sched).Nanoseconds())/1e6)
		}
	}
	elapsed := time.Since(t0).Seconds()
	sort.Float64s(samples)
	pt := ratePoint{
		OfferedEpochsPerSec:  rate,
		AchievedEpochsPerSec: float64(epochs) / elapsed,
		P50Ms:                stats.Percentile(samples, 50),
		P99Ms:                stats.Percentile(samples, 99),
		Samples:              len(samples),
	}
	return pt, e0 + int64(epochs), nil
}
