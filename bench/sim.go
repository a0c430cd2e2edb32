package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"fuzzybarrier/internal/barrierd"
	"fuzzybarrier/internal/cluster"
	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// The sim-* workloads are sized by fixed counts per measured second,
// not by a calibration run: a simulator's counts must repeat exactly
// for a given (seed, seconds), and a count that depends on how fast the
// host happened to be would not. The constants put a trial near
// seconds/5 on the 2-core hosts this was sized on.
const (
	clusterEpochsPerSecond = 19.0 // sim-cluster epochs per measured second (4096 nodes)
	simSvcEpochsPerSecond  = 32.0 // sim-svc epochs per group per measured second
)

// transcriptHash fingerprints an event log (FNV-1a over its lines).
func transcriptHash(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// checkReplay is the sim-* replay check: two untimed logged replays of
// the warm-up trial's seed must reproduce its counters and final tick,
// and each other's transcript.
func checkReplay(r *result, name string, warm [5]int64, replay func() (counters [5]int64, log []string, err error)) error {
	var hashes [2]uint64
	for i := range hashes {
		counters, log, err := replay()
		if err != nil {
			return err
		}
		if counters != warm {
			r.problemf("%s: logged replay counters %v differ from the timed run's %v", name, counters, warm)
		}
		hashes[i] = transcriptHash(log)
	}
	if hashes[0] != hashes[1] {
		r.problemf("%s: transcript hash %016x then %016x for one seed", name, hashes[0], hashes[1])
	}
	return nil
}

// ---- sim-cluster ----

func clusterConfig(p params, epochs int, seed uint64) cluster.Config {
	cfg := cluster.Config{
		Protocol: "dissemination", Nodes: 4096, Epochs: epochs,
		Work: 400, WorkJitter: 100, Region: 150,
		Net:  cluster.NetConfig{Latency: 12, Jitter: 25, DropRate: 0.2, DupRate: 0.08},
		Seed: seed,
	}
	if p.tiny {
		cfg.Nodes = 64
	}
	return cfg
}

// clusterRun is one cluster.New(...).Run() with its host times.
type clusterRun struct {
	setup, wall time.Duration
	res         *cluster.Result
	log         []string
	mem         memDelta
}

func runCluster(cfg cluster.Config) (clusterRun, error) {
	runtime.GC() // a trial starts from the previous trial's live heap, not its garbage
	t0 := time.Now()
	sim, err := cluster.New(cfg)
	if err != nil {
		return clusterRun{}, err
	}
	run := clusterRun{setup: time.Since(t0)}
	mem := startMem()
	begin := time.Now()
	run.res, err = sim.Run()
	run.wall = time.Since(begin)
	run.mem = mem.stop()
	run.log = sim.EventLog()
	if err != nil && run.res == nil {
		return run, err
	}
	return run, nil // a stuck run carries res.Stuck; check reports it
}

// events is the event count visible from outside the engine: one work
// and one region completion per node-episode, every delivery, and
// every retransmission. It is a function of the Result alone, so it
// repeats exactly.
func (r clusterRun) events() float64 {
	return 2*r.episodes() + float64(r.res.Delivered+r.res.Retransmits)
}

func (r clusterRun) episodes() float64 { return float64(r.res.Nodes) * float64(r.res.Epochs) }

// check is the sim-cluster output check: not stuck, and in every epoch
// the last Arrive precedes the first release.
func (r clusterRun) check() (failed int64, problem string) {
	if r.res.Stuck != nil {
		return int64(r.episodes()), "stuck: " + r.res.Stuck.Why
	}
	for e := 0; e < r.res.Epochs; e++ {
		lastArrive, firstRelease := int64(0), int64(math.MaxInt64)
		for n := 0; n < r.res.Nodes; n++ {
			lastArrive = max(lastArrive, r.res.ArriveAt[n][e])
			firstRelease = min(firstRelease, r.res.ReleaseAt[n][e])
		}
		if lastArrive > firstRelease {
			failed += int64(r.res.Nodes)
			problem = fmt.Sprintf("epoch %d released at %d before the last arrive at %d", e, firstRelease, lastArrive)
		}
	}
	return failed, problem
}

// counters are the fields a replay must reproduce.
func (r clusterRun) counters() [5]int64 {
	return [5]int64{r.res.Sends, r.res.Drops, r.res.Dups, r.res.Delivered, r.res.Ticks}
}

func runSimCluster(p params) (*result, error) {
	const name = "sim-cluster"
	trials, trialSeconds := p.plan()
	epochs := max(4, int(math.Round(clusterEpochsPerSecond*trialSeconds)))
	warmEpochs := max(2, epochs/16)
	r := newResult(map[string]any{
		"protocol": "dissemination", "nodes": clusterConfig(p, 1, 0).Nodes,
		"epochs_per_trial": epochs, "engine": "serial typed",
		"net": "latency 12 jitter 25 drop 0.2 dup 0.08",
	})
	r.trials = trials

	// Warm-up trial. Its untimed logged replay follows the timed trials,
	// so that the transcripts' garbage is not in heap_peak_mb.
	warmCfg := clusterConfig(p, warmEpochs, p.seed)
	warm, err := runCluster(warmCfg)
	if err != nil {
		return nil, err
	}

	spans := &spanLog{tickNs: 1, laneName: func(int) string { return "sim-cluster" }}
	base := time.Now()
	var tracedHeadline []float64
	var serialWall []float64 // [0] ran the seed the parallel run repeats
	for t := 0; t < trials; t++ {
		t0 := time.Since(base).Nanoseconds()
		run, err := runCluster(clusterConfig(p, epochs, p.seed+uint64(t)))
		if err != nil {
			return nil, err
		}
		t1 := time.Since(base).Nanoseconds()
		failed, problem := run.check()
		t2 := time.Since(base).Nanoseconds()
		r.attempted += int64(run.episodes())
		r.failed += failed
		if problem != "" {
			r.problemf("%s trial %d: %s", name, t, problem)
		}
		secs := run.wall.Seconds()
		r.noteMem(run.mem, run.episodes())
		r.e2e.add("setup_s", run.setup.Seconds())
		r.e2e.add("sync_us", secs*1e6/run.episodes())
		r.e2e.add("ops_per_s", run.events()/secs)
		r.layer.add("sim_episodes_per_s", run.episodes()/secs)
		r.layer.add("sim_events_per_s", run.events()/secs)
		r.layer.add("cluster.ns_per_event", secs*1e9/run.events())
		r.layer.add("cluster.allocs_per_event", float64(run.mem.mallocs)/run.events())
		r.layer.add("cluster.events_per_episode", run.events()/run.episodes())
		r.layer.add("cluster.sim_ticks", float64(run.res.Ticks))
		r.layer.add("cluster.retransmits", float64(run.res.Retransmits))
		serialWall = append(serialWall, secs)
		// The engine is opaque from outside: the spans are the calls.
		id := fmt.Sprintf("trial%d", t)
		build := t0 + run.setup.Nanoseconds()
		spans.add(span{Name: "trial", ID: id, Start: t0, End: t2})
		spans.add(span{Name: "cluster.New", ID: id, Parent: "trial", Start: t0, End: build})
		spans.add(span{Name: "Sim.Run", ID: id, Parent: "trial", Start: build, End: t1})
		spans.add(span{Name: "check", ID: id, Parent: "trial", Start: t1, End: t2})
	}
	err = r.extraSetups(p, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := cluster.New(clusterConfig(p, epochs, p.seed))
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}

	warmCfg.LogEvents = true
	err = checkReplay(r, name, warm.counters(), func() ([5]int64, []string, error) {
		replay, err := runCluster(warmCfg)
		if err != nil {
			return [5]int64{}, nil, err
		}
		return replay.counters(), replay.log, nil
	})
	if err != nil {
		return nil, err
	}

	if p.traced {
		// Nothing inside the engine is traced, so the traced headline
		// is the untraced one; the pass adds the two other engines on
		// the same configuration, for reference.
		tracedHeadline = r.e2e["sync_us"]
		cfg := clusterConfig(p, epochs, p.seed)
		cfg.Shards = p.procs
		par, err := runCluster(cfg)
		if err != nil {
			return nil, err
		}
		r.layer.add("cluster.par_speedup", ratio(serialWall[0], par.wall.Seconds()))
		seeds := make([]uint64, 8)
		for i := range seeds {
			seeds[i] = p.seed + uint64(i)
		}
		batchCfg := clusterConfig(p, max(1, epochs/len(seeds)), 0)
		begin := time.Now()
		_, errs := cluster.RunBatch(batchCfg, seeds, 0, nil)
		batchWall := time.Since(begin)
		for _, err := range errs {
			if err != nil {
				r.problemf("%s: RunBatch: %v", name, err)
			}
		}
		r.layer.add("cluster.batch_ns_per_seed_episode",
			float64(batchWall.Nanoseconds())/(float64(len(seeds))*float64(batchCfg.Nodes)*float64(batchCfg.Epochs)))
		if err := spans.write(p.spanDir, name); err != nil {
			return nil, err
		}
	}
	r.finish(tracedHeadline)
	return r, nil
}

// ---- sim-svc ----

// simSvcSpec sizes sim-svc: barrierd on a lossy SimNet with E19's
// fault model, every (connection, group) its own closed loop.
type simSvcSpec struct {
	conns, groups, clientsPer int
	epochs                    int64
}

const (
	simSvcLatency, simSvcJitter = 2, 5
	simSvcDrop, simSvcDup       = 0.1, 0.03
	// simSvcTickBudget stops a run whose queue never drains (watchdog
	// and retransmit timers re-arm forever) without finishing.
	simSvcTickBudget = 50_000_000
)

// release is one observed release, for comparing two runs' sequences.
type release struct {
	conn, g int
	e, tick int64
}

// simSvcRun is one run of sim-svc.
type simSvcRun struct {
	setup, wall time.Duration
	steps       int64      // events executed in the timed phase
	recs        []epochRec // clock = SimNet ticks
	releases    []release
	counters    [5]int64 // Sent, Dropped, Duped, Delivered, final tick
	log         []string
	failed      int64
	problems    []string
	mem         memDelta
	tap         *tapNet
}

func runSimSvcOnce(spec simSvcSpec, seed uint64, traced, logged bool) (*simSvcRun, error) {
	runtime.GC() // as in runCluster
	t0 := time.Now()
	nw := transport.NewSimNet(transport.SimConfig{
		Latency: simSvcLatency, Jitter: simSvcJitter,
		DropRate: simSvcDrop, DupRate: simSvcDup, Seed: seed, LogEvents: logged,
	})
	defer nw.Close()
	cfg := barrierd.SimConfig(simSvcLatency, simSvcJitter)
	run := &simSvcRun{}
	var net transport.Network = nw
	if traced {
		run.tap = newTapNet(nw, cfg.Shards, nw.Now, false)
		net = run.tap
	}
	stuck := 0
	svc, err := barrierd.Start(net, cfg, func(barrierd.StuckReport) { stuck++ }, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	ids := svcInputs(seed, spec.conns*spec.groups*spec.clientsPer, spec.groups, spec.conns)
	cs := make([]*barrierd.Conn, spec.conns)
	for i := range cs {
		if cs[i], err = barrierd.Dial(net, transport.ConnAddrBase+transport.Addr(i), cfg); err != nil {
			return nil, err
		}
	}
	// Set-up: join everyone. Everything below runs on the one goroutine
	// that steps the simulator, so the driver state needs no locks.
	joinsLeft := spec.conns * spec.groups
	for i, c := range cs {
		for g := 0; g < spec.groups; g++ {
			c.JoinBatch(uint32(g), core.SignalWait, ids[i][g], func(int64) { joinsLeft-- })
		}
	}
	for joinsLeft > 0 && nw.Now() < simSvcTickBudget && nw.Step() {
	}
	if joinsLeft > 0 {
		return nil, fmt.Errorf("sim-svc: %d joins unconfirmed at tick %d", joinsLeft, nw.Now())
	}
	run.setup = time.Since(t0)

	// Timed phase: closed loops, driven by Step so events are counted.
	type times struct{ start, rel []int64 }
	at := make([][]times, spec.conns)
	for i := range at {
		at[i] = make([]times, spec.groups)
	}
	left := spec.conns * spec.groups
	early := 0
	var arrive func(i, g int, e int64)
	arrive = func(i, g int, e int64) {
		at[i][g].start = append(at[i][g].start, nw.Now())
		cs[i].ArriveBatch(uint32(g), e, ids[i][g])
		cs[i].WhenReleased(uint32(g), e, func(released int64) {
			at[i][g].rel = append(at[i][g].rel, nw.Now())
			run.releases = append(run.releases, release{i, g, e, nw.Now()})
			if released < e {
				early++
			}
			if e+1 == spec.epochs {
				left--
				return
			}
			arrive(i, g, e+1)
		})
	}
	for i := range cs {
		for g := 0; g < spec.groups; g++ {
			arrive(i, g, 0)
		}
	}
	mem := startMem()
	if traced {
		run.tap.open.Store(true)
	}
	begin := time.Now()
	for left > 0 && nw.Now() < simSvcTickBudget && nw.Step() {
		run.steps++
	}
	run.wall = time.Since(begin)
	run.mem = mem.stop()
	run.counters = [5]int64{nw.Sent, nw.Dropped, nw.Duped, nw.Delivered, nw.Now()}
	run.log = nw.EventLog()

	// Output checks: finished, never stuck, no release below the awaited
	// epoch, and in every (group, epoch) the last arrive precedes the
	// first observed release.
	if early > 0 {
		run.problems = append(run.problems, fmt.Sprintf("%d releases below the awaited epoch", early))
	}
	if stuck > 0 {
		run.problems = append(run.problems, fmt.Sprintf("%d StuckReports", stuck))
	}
	var problems []string
	run.recs, run.failed, problems = foldEpochs(spec.groups, spec.epochs, len(cs), func(c, g int) connTimes {
		tm := at[c][g]
		return connTimes{tm.start, tm.start, tm.rel} // ArriveBatch takes no virtual time
	})
	run.problems = append(run.problems, problems...)
	return run, nil
}

func runSimSvc(p params) (*result, error) {
	const name = "sim-svc"
	trials, trialSeconds := p.plan()
	spec := simSvcSpec{conns: 64, groups: 64, clientsPer: 8,
		epochs: max(3, int64(math.Round(simSvcEpochsPerSecond*trialSeconds)))}
	if p.tiny {
		spec.conns, spec.groups = 8, 8
	}
	r := newResult(map[string]any{
		"conns": spec.conns, "groups": spec.groups, "clients_per_conn_group": spec.clientsPer,
		"epochs_per_group_trial": spec.epochs, "shards": barrierd.SimConfig(simSvcLatency, simSvcJitter).Shards,
		"net": "latency 2 jitter 5 drop 0.1 dup 0.03",
	})
	r.trials = trials
	groupEpochs := float64(int64(spec.groups) * spec.epochs)

	// Warm-up trial; its logged replays follow the timed trials, as in
	// sim-cluster.
	warmSpec := spec
	warmSpec.epochs = max(2, spec.epochs/10)
	warm, err := runSimSvcOnce(warmSpec, p.seed, false, false)
	if err != nil {
		return nil, err
	}

	for t := 0; t < trials; t++ {
		run, err := runSimSvcOnce(spec, p.seed+uint64(t), false, false)
		if err != nil {
			return nil, err
		}
		r.attempted += int64(groupEpochs)
		r.failed += run.failed
		for _, pr := range run.problems {
			r.problemf("%s trial %d: %s", name, t, pr)
		}
		secs, steps := run.wall.Seconds(), float64(run.steps)
		r.noteMem(run.mem, groupEpochs)
		r.e2e.add("setup_s", run.setup.Seconds())
		r.e2e.add("sync_us", secs*1e6/groupEpochs)
		r.e2e.add("ops_per_s", steps/secs)
		r.layer.add("sim_episodes_per_s", groupEpochs/secs)
		r.layer.add("sim_events_per_s", steps/secs)
		r.layer.add("transport.simnet_ns_per_event", secs*1e9/steps)
		r.layer.add("transport.simnet_allocs_per_event", float64(run.mem.mallocs)/steps)
		r.layer.add("transport.simnet_events_per_epoch", steps/groupEpochs)
		if len(run.recs) > 0 {
			var ticks []float64
			for _, rec := range run.recs {
				ticks = append(ticks, float64(rec.t6-rec.t0))
			}
			lat := pcts(ticks, 50, 99) // virtual time, 1 tick reported as 1 ms
			r.layer.add("epoch_p50_ms", lat[0])
			r.layer.add("epoch_p99_ms", lat[1])
		}
	}

	err = checkReplay(r, name, warm.counters, func() ([5]int64, []string, error) {
		replay, err := runSimSvcOnce(warmSpec, p.seed, false, true)
		if err != nil {
			return [5]int64{}, nil, err
		}
		return replay.counters, replay.log, nil
	})
	if err != nil {
		return nil, err
	}

	var tracedHeadline []float64
	if p.traced {
		spans := &spanLog{tickNs: 1e6, laneName: epochLaneName}
		spec.epochs = max(1, int64(float64(spec.epochs)*tracedShare))
		groupEpochs = float64(int64(spec.groups) * spec.epochs)
		for t := 0; t < trials; t++ {
			run, err := runSimSvcOnce(spec, p.seed+uint64(t), true, false)
			if err != nil {
				return nil, err
			}
			for _, pr := range run.problems {
				r.problemf("%s traced trial %d: %s", name, t, pr)
			}
			if len(run.recs) == 0 {
				continue
			}
			tracedHeadline = append(tracedHeadline, run.wall.Seconds()*1e6/groupEpochs)
			sp := spans
			if t > 0 {
				sp = nil
			}
			addTapMetrics(r, name, run.tap, run.recs, 1, run.wall, sp)
		}
		if err := spans.write(p.spanDir, name); err != nil {
			return nil, err
		}
	}
	r.finish(tracedHeadline)
	return r, nil
}
