package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuzzybarrier/internal/barrierd"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// svcSpec sizes one svc-* workload. The service keeps its defaults
// (barrierd.RealtimeConfig: 4 shards, radix 2): that is the program,
// not the load. Client connections = GOMAXPROCS.
type svcSpec struct {
	clients, groups int
	udp             bool  // loopback UDP sockets instead of ChanNet
	churn           bool  // a 5% cohort per (connection, group) leaves and rejoins every epoch
	calib           int64 // epochs per group of the warm-up trial
}

const (
	// epochTimeout fails and aborts a trial in which no connection saw a
	// release or a join confirmation for this long, instead of hanging.
	epochTimeout = 10 * time.Second
	// drainTimeout bounds the untimed teardown's wait for the drain
	// release that follows the last LeaveBatch.
	drainTimeout = 3 * time.Second
)

func runSvc1M(p params) (*result, error) {
	spec := svcSpec{clients: 1_000_000, groups: 4, calib: 10}
	if p.tiny {
		spec.clients = 20_000
	}
	return runSvc(p, "svc-1m", spec)
}

func runSvcSmall(p params) (*result, error) {
	return runSvc(p, "svc-small", svcSpec{clients: 2048, groups: 64, calib: 60})
}

func runSvcUDPChurn(p params) (*result, error) {
	spec := svcSpec{clients: 10_000, groups: 2, udp: true, churn: true, calib: 100}
	if p.tiny {
		spec.clients = 2000
	}
	return runSvc(p, "svc-udp-churn", spec)
}

// svcInputs deals a seeded permutation of the client ids out to
// [connection][group] slices: every group gets clients/groups members,
// spread round-robin over the connections.
func svcInputs(seed uint64, clients, groups, conns int) [][][]uint64 {
	perm := make([]uint64, clients)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5C))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	ids := make([][][]uint64, conns)
	for c := range ids {
		ids[c] = make([][]uint64, groups)
	}
	perGroup := clients / groups
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			ids[k%conns][g] = append(ids[k%conns][g], perm[g*perGroup+k])
		}
	}
	return ids
}

// connEvent is what a connection's callbacks tell its driver.
type connEvent struct {
	g    int
	join bool  // a cohort's JoinOK (else: a release)
	owed int64 // join: first epoch the rejoined cohort owes
	at   int64
}

// connDriver runs one connection's closed loops: for each of its
// groups, arrive at epoch e, wait for the release (and, with churn, for
// the cohort's JoinOK), arrive at e+1. Releases and join confirmations
// are timestamped in the Conn's callbacks, on its dispatch context.
type connDriver struct {
	c     *barrierd.Conn
	ids   [][]uint64 // [group]
	clock func() int64
	churn bool

	start, ret, rel [][]int64 // [group][epoch]: ArriveBatch entered / returned, release observed
	events          chan connEvent
	early           atomic.Int64 // releases below the awaited epoch
	callNs          int64        // Σ time inside ArriveBatch
	leaveAt         []int64      // [group] clock of the open cohort's LeaveBatch
	leaveRejoin     []float64    // ms from LeaveBatch to JoinOK
}

func newConnDriver(c *barrierd.Conn, ids [][]uint64, clock func() int64, churn bool) *connDriver {
	g := len(ids)
	return &connDriver{
		c: c, ids: ids, clock: clock, churn: churn,
		start: make([][]int64, g), ret: make([][]int64, g), rel: make([][]int64, g),
		// Two events per group can be outstanding (release, JoinOK), so
		// a callback never blocks the dispatch context.
		events:  make(chan connEvent, 2*g),
		leaveAt: make([]int64, g),
	}
}

// cohort picks epoch e's 5% of one (connection, group) slice: a window
// over the seeded permutation, advancing every epoch.
func cohort(ids []uint64, e int64) []uint64 {
	size := max(1, len(ids)/20)
	w := int(e) % (len(ids) / size)
	return ids[w*size : (w+1)*size]
}

func (d *connDriver) arrive(g int, e int64) {
	t0 := d.clock()
	d.c.ArriveBatch(uint32(g), e, d.ids[g])
	t1 := d.clock()
	d.start[g] = append(d.start[g], t0)
	d.ret[g] = append(d.ret[g], t1)
	d.callNs += t1 - t0
	if d.churn {
		co := cohort(d.ids[g], e)
		d.leaveAt[g] = d.clock()
		d.c.LeaveBatch(uint32(g), co)
		d.c.JoinBatch(uint32(g), core.SignalWait, co, func(owed int64) {
			d.events <- connEvent{g: g, join: true, owed: owed, at: d.clock()}
		})
	}
	d.c.WhenReleased(uint32(g), e, func(released int64) {
		d.rel[g] = append(d.rel[g], d.clock())
		if released < e {
			d.early.Add(1)
		}
		d.events <- connEvent{g: g}
	})
}

// drive runs every group of the connection through epochs [0, epochs).
func (d *connDriver) drive(epochs int64, abort <-chan struct{}, progress *atomic.Int64) {
	type state struct {
		e                int64
		released, joined bool
	}
	st := make([]state, len(d.ids))
	for g := range st {
		st[g].joined = !d.churn
		d.arrive(g, 0)
	}
	for left := len(st); left > 0; {
		var ev connEvent
		select {
		case ev = <-d.events:
		case <-abort:
			return
		}
		progress.Add(1)
		s := &st[ev.g]
		if ev.join {
			s.joined = true
			d.leaveRejoin = append(d.leaveRejoin, float64(ev.at-d.leaveAt[ev.g])/1e6)
			if ev.owed <= s.e && !s.released {
				// The home re-registered the cohort while epoch e was
				// still open, so it owes e again (a repeat is ignored).
				d.c.ArriveBatch(uint32(ev.g), s.e, cohort(d.ids[ev.g], s.e))
			}
		} else {
			s.released = true
		}
		if s.released && s.joined {
			s.e++
			if s.e == epochs {
				left--
				continue
			}
			s.released, s.joined = false, !d.churn
			d.arrive(ev.g, s.e)
		}
	}
}

// svcTrial is one trial on a fresh service.
type svcTrial struct {
	setup, join, wall time.Duration
	recs              []epochRec // completed (group, epoch)s, clock = ns since the trial began
	attempted, failed int64
	problems          []string
	stuck, drops      int64
	mem               memDelta
	callNs            int64
	leaveRejoin       []float64
	tap               *tapNet // traced trials; safe to read once the trial returned
}

func (t *svcTrial) latenciesMs() []float64 {
	out := make([]float64, len(t.recs))
	for i, r := range t.recs {
		out[i] = float64(r.t6-r.t0) / 1e6
	}
	return out
}

// runSvcTrial starts a service, joins every client (set-up), drives
// epochs per group in closed loop (timed), then leaves, waits for the
// drain and closes everything (untimed).
func runSvcTrial(spec svcSpec, ids [][][]uint64, epochs int64, traced bool) (*svcTrial, error) {
	runtime.GC() // a trial starts from the previous trial's live heap, not its garbage
	base := time.Now()
	clock := func() int64 { return time.Since(base).Nanoseconds() }
	cfg := barrierd.RealtimeConfig()

	var chanNet *transport.ChanNet
	var inner transport.Network
	if spec.udp {
		inner = transport.NewUDPNet(1 << 15)
	} else {
		chanNet = transport.NewChanNet(1 << 15)
		inner = chanNet
	}
	defer inner.Close()
	nw := inner
	tr := &svcTrial{}
	if traced {
		tr.tap = newTapNet(inner, cfg.Shards, clock, true)
		nw = tr.tap
	}

	var stuck atomic.Int64
	svc, err := barrierd.Start(nw, cfg, func(barrierd.StuckReport) { stuck.Add(1) }, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	drivers := make([]*connDriver, len(ids))
	for i := range drivers {
		c, err := barrierd.Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		drivers[i] = newConnDriver(c, ids[i], clock, spec.churn)
	}
	each := func(fn func(d *connDriver)) {
		var wg sync.WaitGroup
		for _, d := range drivers {
			wg.Add(1)
			go func(d *connDriver) {
				defer wg.Done()
				fn(d)
			}(d)
		}
		wg.Wait()
	}
	joinStart := time.Now()
	each(func(d *connDriver) {
		for g, members := range d.ids {
			d.c.JoinBatch(uint32(g), core.SignalWait, members, nil)
		}
		for g := range d.ids {
			d.c.AwaitJoined(uint32(g))
		}
	})
	tr.join = time.Since(joinStart)
	tr.setup = time.Since(base)

	// Timed phase.
	abort := make(chan struct{})
	finished := make(chan struct{})
	var progress atomic.Int64
	go func() { // fails the trial when nothing moved for epochTimeout
		tick := time.NewTicker(epochTimeout / 50)
		defer tick.Stop()
		last, since := int64(-1), time.Now()
		for {
			select {
			case <-finished:
				return
			case <-tick.C:
				if now := progress.Load(); now != last {
					last, since = now, time.Now()
				} else if time.Since(since) > epochTimeout {
					close(abort)
					return
				}
			}
		}
	}()
	mem := startMem()
	if traced {
		tr.tap.open.Store(true)
	}
	begin := time.Now()
	each(func(d *connDriver) { d.drive(epochs, abort, &progress) })
	tr.wall = time.Since(begin)
	if traced {
		tr.tap.open.Store(false)
	}
	tr.mem = mem.stop()
	close(finished)

	tr.collect(spec, drivers, epochs)

	// Untimed teardown: deregister everyone so the groups drain instead
	// of leaving the watchdog abandoned signalers, and wait for the
	// drain release rather than sleeping.
	if tr.failed == 0 {
		var drained sync.WaitGroup
		for _, d := range drivers {
			for g, members := range d.ids {
				drained.Add(1)
				d.c.WhenReleased(uint32(g), barrierd.DrainEpoch, func(int64) { drained.Done() })
				d.c.LeaveBatch(uint32(g), members)
			}
		}
		done := make(chan struct{})
		go func() { drained.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(drainTimeout):
			tr.problems = append(tr.problems, "groups did not drain after the last LeaveBatch")
		}
	}
	if chanNet != nil {
		tr.drops = chanNet.Drops()
	}
	tr.stuck = stuck.Load()
	if tr.stuck > 0 {
		tr.problems = append(tr.problems, fmt.Sprintf("%d StuckReports", tr.stuck))
	}
	return tr, nil
}

// collect folds the drivers' timestamps into one record per (group,
// epoch) and runs the output checks.
func (t *svcTrial) collect(spec svcSpec, drivers []*connDriver, epochs int64) {
	t.attempted = int64(spec.groups) * epochs
	for _, d := range drivers {
		if n := d.early.Load(); n > 0 {
			t.problems = append(t.problems, fmt.Sprintf("%d releases below the awaited epoch", n))
		}
		t.callNs += d.callNs
		t.leaveRejoin = append(t.leaveRejoin, d.leaveRejoin...)
	}
	var problems []string
	t.recs, t.failed, problems = foldEpochs(spec.groups, epochs, len(drivers), func(c, g int) connTimes {
		return connTimes{drivers[c].start[g], drivers[c].ret[g], drivers[c].rel[g]}
	})
	t.problems = append(t.problems, problems...)
}

func runSvc(p params, name string, spec svcSpec) (*result, error) {
	trials, trialSeconds := p.plan()
	conns := p.procs
	if p.tiny {
		spec.calib = 5
	}
	transportName := "chan"
	if spec.udp {
		transportName = "loopback-udp"
	}
	r := newResult(map[string]any{
		"clients": spec.clients, "groups": spec.groups, "conns": conns,
		"transport": transportName, "churn": spec.churn, "shards": barrierd.RealtimeConfig().Shards,
	})
	r.trials = trials
	ids := svcInputs(p.seed, spec.clients, spec.groups, conns)
	perGroup := float64(spec.clients / spec.groups)

	// Warm-up trial: fills caches, and sizes the timed trials.
	warm, err := runSvcTrial(spec, ids, spec.calib, false)
	if err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s warm-up: %v", name, warm.problems)
	}
	epochs := spec.calib
	if !p.tiny {
		rate := float64(spec.calib) / warm.wall.Seconds() // epochs per group per second
		epochs = max(spec.calib, int64(math.Ceil(rate*trialSeconds)))
	}
	r.sizes["epochs_per_group_trial"] = epochs

	for t := 0; t < trials; t++ {
		tr, err := runSvcTrial(spec, ids, epochs, false)
		if err != nil {
			return nil, err
		}
		r.attempted += tr.attempted
		r.failed += tr.failed
		for _, pr := range tr.problems {
			r.problemf("%s trial %d: %s", name, t, pr)
		}
		done := float64(len(tr.recs))
		r.noteMem(tr.mem, done)
		if done == 0 {
			continue
		}
		lat := pcts(tr.latenciesMs(), 50, 99)
		r.e2e.add("setup_s", tr.setup.Seconds())
		r.e2e.add("sync_us", lat[0]*1e3)
		r.e2e.add("ops_per_s", done*perGroup/tr.wall.Seconds())
		r.layer.add("epoch_p50_ms", lat[0])
		r.layer.add("epoch_p99_ms", lat[1])
		r.layer.add("epochs_per_s", done/tr.wall.Seconds())
		r.layer.add("barrierd.join_us_per_client", float64(tr.join.Microseconds())/float64(spec.clients))
		r.layer.add("barrierd.stuck_reports", float64(tr.stuck))
		r.layer.add("transport.chan_drops", float64(tr.drops))
		if len(tr.leaveRejoin) > 0 {
			r.layer.add("barrierd.leave_rejoin_ms_p50", median(tr.leaveRejoin))
		}
	}
	r.sizes["latency_samples"] = int64(spec.groups) * epochs * int64(trials)
	if spec.clients <= 10_000 {
		err := r.extraSetups(p, func() (time.Duration, error) {
			tr, err := runSvcTrial(spec, ids, 1, false)
			if err != nil {
				return 0, err
			}
			return tr.setup, nil
		})
		if err != nil {
			return nil, err
		}
	}

	var tracedHeadline []float64
	if p.traced {
		spans := &spanLog{tickNs: 1, laneName: epochLaneName}
		tracedEpochs := max(1, int64(float64(epochs)*tracedShare))
		for t := 0; t < trials; t++ {
			tr, err := runSvcTrial(spec, ids, tracedEpochs, true)
			if err != nil {
				return nil, err
			}
			for _, pr := range tr.problems {
				r.problemf("%s traced trial %d: %s", name, t, pr)
			}
			if len(tr.recs) == 0 {
				continue
			}
			tracedHeadline = append(tracedHeadline, median(tr.latenciesMs())*1e3)
			sp := spans
			if t > 0 {
				sp = nil
			}
			addTapMetrics(r, name, tr.tap, tr.recs, 1e6, tr.wall, sp)
			r.layer.add("barrierd.client_call_ns_per_epoch", float64(tr.callNs)/float64(len(tr.recs)))
			waits := pcts(tr.tap.queueWaits(), 50, 99)
			r.layer.add("transport.queue_wait_us_p50", waits[0]/1e3)
			r.layer.add("transport.queue_wait_us_p99", waits[1]/1e3)
		}
		if err := spans.write(p.spanDir, name); err != nil {
			return nil, err
		}
	}
	r.finish(tracedHeadline)
	return r, nil
}

// epochLanes puts a group's even and odd epochs on two timeline rows:
// epoch e+1 may start at one connection before the last connection saw
// e's release, and slices of one row must not overlap.
func epochLanes(k epochKey) (lane int, id string) {
	return int(k.g)*2 + int(k.e&1), fmt.Sprintf("g%d/e%d", k.g, k.e)
}

func epochLaneName(lane int) string {
	return fmt.Sprintf("group %d %s epochs", lane/2, [2]string{"even", "odd"}[lane%2])
}

// addTapMetrics reports what the tap saw in one traced trial: the six
// segments (asserting that they telescope to the traced epoch latency),
// shard busy time, and message, id, byte and reliability counts per
// (group, epoch). unitsPerMs converts the trial's clock to ms.
func addTapMetrics(r *result, name string, tap *tapNet, recs []epochRec, unitsPerMs float64, wall time.Duration, spans *spanLog) {
	n := float64(len(recs))
	sums, total, ok := tap.segments(recs, spans)
	if !ok {
		r.problemf("%s: barrierd.seg_* sum differs from the traced epoch latency %d", name, total)
	}
	r.layer.add("barrierd.traced_epoch_ms", float64(total)/n/unitsPerMs)
	for i, s := range segNames {
		r.layer.add("barrierd."+s+"_ms", float64(sums[i])/n/unitsPerMs)
	}
	tt := tap.totals()
	kinds := map[string]transport.Kind{
		"arrive": transport.KindArrive, "combine": transport.KindCombine,
		"release": transport.KindRelease, "join": transport.KindJoin, "ack": transport.KindAck,
	}
	for _, k := range []string{"arrive", "combine", "release", "join"} {
		r.layer.add("barrierd.shard_busy_ns_per_epoch."+k, float64(tt.shardBusy[kinds[k]])/n)
	}
	var busiest int64
	for _, ns := range tt.shardTotal {
		busiest = max(busiest, ns)
	}
	r.layer.add("barrierd.shard_busy_share.max", float64(busiest)/float64(wall.Nanoseconds()))
	r.layer.add("barrierd.ids_per_epoch", float64(tt.ids)/n)
	for _, k := range []string{"arrive", "combine", "release", "ack"} {
		r.layer.add("barrierd.msgs_per_epoch."+k, float64(tt.sent[kinds[k]])/n)
	}
	r.layer.add("transport.wire_bytes_per_epoch", float64(tt.wireBytes)/n)
	r.layer.add("transport.retransmits_per_epoch", float64(tt.retransmits)/n)
	r.layer.add("transport.dup_deliveries_per_epoch", float64(tt.dups)/n)
	r.layer.add("transport.acks_per_reliable_msg", ratio(float64(tt.sent[transport.KindAck]), float64(tt.firstSends)))
	ns, allocs := tap.codecCost()
	r.layer.add("transport.codec_ns_per_msg", ns)
	r.layer.add("transport.codec_allocs_per_msg", allocs)
}
