package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"fuzzybarrier/internal/baseline"
	"fuzzybarrier/internal/core"
)

// impls are the runtime split barriers under test, by metric suffix
// (implKeys order) and baseline.NewSplit name.
var impls = []struct{ key, split string }{
	{"central", "fuzzy"},
	{"tree", "fuzzy-tree"},
	{"hier", "hier"},
}

// rtSpec sizes one rt-* workload.
type rtSpec struct {
	n      int  // participants
	body   int  // mean spin iterations of one episode's body; 0 = no work
	region bool // move half of each body between Arrive and Wait
}

// bodyIters is the mean body of rt-region in spin iterations: ~20 µs on
// the hosts this was sized on. It is a fixed count, not a calibrated
// time, so the same seed gives the same inputs everywhere;
// bench.body_ns reports what it cost.
const bodyIters = 16000

// rtTrialSeconds is the length of one rt-* trial (all three impls).
const rtTrialSeconds = 0.06

func runRTSpin(p params) (*result, error) {
	return runRT(p, "rt-spin", rtSpec{n: p.procs})
}

func runRTBlock(p params) (*result, error) {
	return runRT(p, "rt-block", rtSpec{n: 64})
}

func runRTRegion(p params) (*result, error) {
	return runRT(p, "rt-region", rtSpec{n: p.procs, body: bodyIters, region: true})
}

// spin burns iters dependent multiply-adds. The value is threaded
// through so the compiler cannot drop the loop.
func spin(x uint64, iters int) uint64 {
	for ; iters > 0; iters-- {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// bodies draws one participant's per-episode work from the seed:
// uniform in [0.5, 1.5) x spec.body iterations.
type bodies struct {
	rng  *rand.Rand
	body int
}

func newBodies(seed uint64, participant, body int) bodies {
	return bodies{rng: rand.New(rand.NewPCG(seed, uint64(participant))), body: body}
}

// next returns the iterations before Arrive and inside the region.
func (b *bodies) next(region bool) (pre, reg int) {
	w := b.body/2 + b.rng.IntN(b.body)
	if region {
		return w / 2, w - w/2
	}
	return w, 0
}

// rtTrace holds what the traced pass records per participant: the
// duration of every Arrive and Wait call, and the five boundary
// timestamps of the first spanEpisodes episodes for the span file.
type rtTrace struct {
	arrive, wait [][]int32 // [participant][episode] ns
	stamps       [][]int64 // [participant] 5 timestamps per kept episode
	base         time.Time
}

const (
	spanEpisodes     = 400 // episodes per participant kept as spans
	spanParticipants = 8   // participants kept as spans
)

// rtRun is the outcome of one run of one impl on a fresh barrier.
type rtRun struct {
	setup, wall time.Duration
	episodes    int
	bar         core.SplitBarrier
}

func (r rtRun) nsPerEpisode() float64 {
	return float64(r.wall.Nanoseconds()) / float64(r.episodes)
}

// runImpl builds a fresh barrier, starts spec.n participants and runs
// them through the given number of episodes. setup covers construction
// until every goroutine stands at the start line; wall covers the
// episodes. With tr set, every Arrive and Wait is timed.
func runImpl(spec rtSpec, split string, episodes int, seed uint64, tr *rtTrace) (rtRun, error) {
	t0 := time.Now()
	bar, err := baseline.NewSplit(split, spec.n)
	if err != nil {
		return rtRun{}, err
	}
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	sink := make([]uint64, spec.n)
	ready.Add(spec.n)
	done.Add(spec.n)
	for i := 0; i < spec.n; i++ {
		go func(i int) {
			defer done.Done()
			bd := newBodies(seed, i, spec.body)
			ready.Done()
			<-start
			if tr != nil {
				sink[i] = participateTraced(bar, spec, episodes, &bd, tr, i)
			} else {
				sink[i] = participate(bar, spec, episodes, &bd)
			}
		}(i)
	}
	ready.Wait()
	run := rtRun{setup: time.Since(t0), episodes: episodes, bar: bar}
	begin := time.Now()
	if tr != nil {
		tr.base = begin
	}
	close(start)
	done.Wait()
	run.wall = time.Since(begin)
	return run, nil
}

// participate is one participant's untraced loop.
func participate(bar core.SplitBarrier, spec rtSpec, episodes int, bd *bodies) uint64 {
	var x uint64
	if spec.body == 0 {
		for e := 0; e < episodes; e++ {
			bar.Wait(bar.Arrive())
		}
		return x
	}
	for e := 0; e < episodes; e++ {
		pre, reg := bd.next(spec.region)
		x = spin(x, pre)
		ph := bar.Arrive()
		x = spin(x, reg)
		bar.Wait(ph)
	}
	return x
}

// participateTraced is the same loop with a clock read at each of the
// four boundaries (work | arrive | region | wait).
func participateTraced(bar core.SplitBarrier, spec rtSpec, episodes int, bd *bodies, tr *rtTrace, i int) uint64 {
	var x uint64
	arrive, wait := tr.arrive[i], tr.wait[i]
	keep := 0
	if i < spanParticipants {
		keep = min(episodes, spanEpisodes)
	}
	stamps := make([]int64, 0, 5*keep)
	for e := 0; e < episodes; e++ {
		pre, reg := 0, 0
		if spec.body > 0 {
			pre, reg = bd.next(spec.region)
		}
		t0 := time.Now()
		x = spin(x, pre)
		t1 := time.Now()
		ph := bar.Arrive()
		t2 := time.Now()
		x = spin(x, reg)
		t3 := time.Now()
		bar.Wait(ph)
		t4 := time.Now()
		arrive[e] = int32(t2.Sub(t1))
		wait[e] = int32(min(t4.Sub(t3), 1<<31-1))
		if e < keep {
			for _, t := range [5]time.Time{t0, t1, t2, t3, t4} {
				stamps = append(stamps, t.Sub(tr.base).Nanoseconds())
			}
		}
	}
	tr.stamps[i] = stamps
	return x
}

// check is the rt-* output check: the barrier completed exactly the
// episodes driven and saw exactly n arrivals for each.
func (r rtRun) check(n int) error {
	_, arrivals, _, _, _, _ := r.bar.Stats()
	if got := r.bar.Epoch(); got != int64(r.episodes) {
		return fmt.Errorf("Epoch() = %d after %d episodes", got, r.episodes)
	}
	if want := int64(n) * int64(r.episodes); arrivals != want {
		return fmt.Errorf("Stats arrivals = %d, want %d", arrivals, want)
	}
	return nil
}

// calibrate sizes one impl's trial: it runs short bursts on fresh
// barriers until one lasts 30 ms and returns the episodes that fill
// seconds at that rate. This is the workload's warm-up trial.
func calibrate(p params, spec rtSpec, split string, seconds float64) (int, error) {
	if p.tiny {
		return 300, nil
	}
	episodes := 500
	for {
		run, err := runImpl(spec, split, episodes, p.seed, nil)
		if err != nil {
			return 0, err
		}
		if run.wall >= 30*time.Millisecond {
			return max(500, int(seconds*1e9/run.nsPerEpisode())), nil
		}
		episodes *= 4
	}
}

func runRT(p params, name string, spec rtSpec) (*result, error) {
	// A spin barrier on a few vCPUs stalls whenever the hypervisor, the
	// GC or sysmon takes a CPU for a millisecond, so every long trial
	// carries its share of stalls and no two agree. Setting up an rt-*
	// trial costs microseconds: the same seconds are cut into many short
	// trials (rtTrialSeconds, a third per impl) and the median trial is
	// an undisturbed one.
	trials, trialSeconds := p.plan()
	if !p.tiny {
		trials, trialSeconds = int(float64(trials)*trialSeconds/rtTrialSeconds), rtTrialSeconds
	}
	r := newResult(map[string]any{
		"participants": spec.n, "body_iters": spec.body, "region": spec.region,
	})
	r.trials = trials

	episodes := make([]int, len(impls))
	for k, im := range impls {
		var err error
		if episodes[k], err = calibrate(p, spec, im.split, trialSeconds/float64(len(impls))); err != nil {
			return nil, err
		}
	}
	r.sizes["episodes_per_impl_trial"] = episodes

	for t := 0; t < trials; t++ {
		var nsSum, arrivals, wall, total float64
		mem := startMem()
		for j := range impls {
			k := (t + j) % len(impls) // rotate the order so no impl always runs first
			im := impls[k]
			run, err := runImpl(spec, im.split, episodes[k], p.seed+uint64(t), nil)
			if err != nil {
				return nil, err
			}
			r.attempted += int64(run.episodes)
			if err := run.check(spec.n); err != nil {
				r.failed += int64(run.episodes)
				r.problemf("%s trial %d %s: %v", name, t, im.key, err)
			}
			ns := run.nsPerEpisode()
			nsSum += ns
			arrivals += float64(spec.n) * float64(run.episodes)
			wall += run.wall.Seconds()
			total += float64(run.episodes)
			r.layer.add("episode_ns."+im.key, ns)
			addBarrierStats(r.layer, im.key, run.bar)
		}
		d := mem.stop()
		r.noteMem(d, total)
		r.e2e.add("sync_us", nsSum/float64(len(impls))/1e3)
		r.e2e.add("ops_per_s", arrivals/wall)
		r.layer.add("core.allocs_per_episode", float64(d.mallocs)/total)
	}
	if err := rtSetups(p, spec, r); err != nil {
		return nil, err
	}

	var tracedHeadline []float64
	if p.traced {
		var err error
		if tracedHeadline, err = tracedRT(p, name, spec, episodes, min(trials, 30), r); err != nil {
			return nil, err
		}
	}
	r.finish(tracedHeadline)
	return r, nil
}

// rtSetups measures setup_s for an rt-* workload: building the three
// barriers and bringing their participants to the start line takes
// tens of µs and depends on whether the Ps happen to be idle, so one
// sample is the mean of a batch of 400 set-ups and the metric is the
// median of 15 batches.
func rtSetups(p params, spec rtSpec, r *result) error {
	batches, batch := 15, 400
	if p.tiny {
		batches, batch = 1, 2
	}
	for b := 0; b < batches; b++ {
		var sum time.Duration
		for i := 0; i < batch; i++ {
			for _, im := range impls {
				run, err := runImpl(spec, im.split, 1, p.seed, nil)
				if err != nil {
					return err
				}
				sum += run.setup
			}
		}
		r.e2e.add("setup_s", sum.Seconds()/float64(batch))
	}
	return nil
}

// addBarrierStats reports the wait-outcome split and the hot-spot model
// from the barrier's own counters.
func addBarrierStats(s samples, key string, bar core.SplitBarrier) {
	st := bar.StatsSnapshot()
	waits := float64(st.Waits())
	s.add("core.fast_wait_ratio."+key, ratio(float64(st.FastWaits), waits))
	s.add("core.block_rate."+key, st.BlockRate())
	s.add("core.spin_iters_per_wait."+key, ratio(float64(st.SpinIters), waits))
	if prof, ok := bar.(core.ArriveProfiler); ok {
		ops, phases := prof.HotspotOps()
		s.add("core.hotspot_ops_per_phase."+key, ratio(float64(ops), float64(phases)))
	}
}

// tracedRT is the traced pass of an rt-* workload: every Arrive and
// Wait timed, spans kept for the first episodes, plus the reference
// runs that only explain the headline (solo body, region-0, the
// sense-reversing point barrier).
func tracedRT(p params, name string, spec rtSpec, episodes []int, trials int, r *result) ([]float64, error) {
	spans := &spanLog{tickNs: 1}
	var headline []float64
	episodes = append([]int(nil), episodes...)
	for k := range episodes {
		episodes[k] = max(1, int(float64(episodes[k])*tracedShare))
	}
	pointNs := make([][]float64, len(impls))
	for t := 0; t < trials; t++ {
		var nsSum float64
		for k, im := range impls {
			tr := &rtTrace{
				arrive: make([][]int32, spec.n), wait: make([][]int32, spec.n),
				stamps: make([][]int64, spec.n),
			}
			for i := range tr.arrive {
				tr.arrive[i] = make([]int32, episodes[k])
				tr.wait[i] = make([]int32, episodes[k])
			}
			run, err := runImpl(spec, im.split, episodes[k], p.seed+uint64(t), tr)
			if err != nil {
				return nil, err
			}
			if err := run.check(spec.n); err != nil {
				r.problemf("%s traced trial %d %s: %v", name, t, im.key, err)
			}
			nsSum += run.nsPerEpisode()
			wait, waitTotal := pool(tr.wait), 0.0
			for _, w := range wait {
				waitTotal += w
			}
			waitPcts := pcts(wait, 50, 99)
			r.layer.add("core.arrive_ns_p50."+im.key, pcts(pool(tr.arrive), 50)[0])
			r.layer.add("core.wait_ns_p50."+im.key, waitPcts[0])
			r.layer.add("core.wait_ns_p99."+im.key, waitPcts[1])
			r.layer.add("core.stall_share."+im.key,
				waitTotal/(float64(spec.n)*float64(run.wall.Nanoseconds())))
			if t == 0 {
				rtSpans(spans, im.key, k, tr)
			}

			if spec.region {
				// The same bodies with an empty region: what the region buys.
				point := spec
				point.region = false
				run, err := runImpl(point, im.split, episodes[k], p.seed+uint64(t), nil)
				if err != nil {
					return nil, err
				}
				pointNs[k] = append(pointNs[k], run.nsPerEpisode())
			}
		}
		headline = append(headline, nsSum/float64(len(impls))/1e3)
	}

	body := soloBody(p, spec, episodes[0])
	r.layer.add("bench.body_ns", body)
	for k, im := range impls {
		ns := median(r.layer["episode_ns."+im.key])
		r.layer.add("core.sync_overhead_ns."+im.key, ns-body)
		if spec.region {
			r.layer.add("core.region_gain."+im.key, ratio(median(pointNs[k]), ns))
		}
	}
	if spec.body == 0 && spec.n == p.procs {
		r.layer.add("baseline.episode_ns.sense", senseReference(spec.n, episodes[0]))
	}

	spans.laneName = func(lane int) string {
		return fmt.Sprintf("%s p%d", impls[lane/spanParticipants].key, lane%spanParticipants)
	}
	if err := spans.write(p.spanDir, name); err != nil {
		return nil, err
	}
	return headline, nil
}

// pool flattens per-participant durations into one float sample.
func pool(per [][]int32) []float64 {
	out := make([]float64, 0, len(per)*len(per[0]))
	for _, p := range per {
		for _, v := range p {
			out = append(out, float64(v))
		}
	}
	return out
}

// rtSpans turns the kept boundary timestamps into work / arrive /
// region / wait spans under one episode span per participant.
func rtSpans(l *spanLog, key string, implIdx int, tr *rtTrace) {
	names := [4]string{"work", "arrive", "region", "wait"}
	for i, stamps := range tr.stamps {
		lane := implIdx*spanParticipants + i
		for e := 0; e*5+4 < len(stamps); e++ {
			ts := stamps[e*5 : e*5+5]
			id := fmt.Sprintf("%s/p%d/e%d", key, i, e)
			l.add(span{Name: "episode", ID: id, Lane: lane, Start: ts[0], End: ts[4]})
			for j, n := range names {
				l.add(span{Name: n, ID: id, Parent: "episode", Lane: lane, Start: ts[j], End: ts[j+1]})
			}
		}
	}
}

// soloBody returns the mean ns of one participant's bodies run alone,
// with no barrier: the work an episode would cost if synchronization
// were free.
func soloBody(p params, spec rtSpec, episodes int) float64 {
	if spec.body == 0 {
		return 0
	}
	bd := newBodies(p.seed, 0, spec.body)
	var x uint64
	begin := time.Now()
	for e := 0; e < episodes; e++ {
		pre, reg := bd.next(spec.region)
		x = spin(spin(x, pre), reg)
	}
	d := time.Since(begin)
	runtime.KeepAlive(x)
	return float64(d.Nanoseconds()) / float64(episodes)
}

// senseReference times the classic sense-reversing point barrier on
// the same participants and episodes: the conventional barrier the
// paper starts from.
func senseReference(n, episodes int) float64 {
	bar := baseline.NewSenseReversing(n)
	var done sync.WaitGroup
	start := make(chan struct{})
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer done.Done()
			<-start
			for e := 0; e < episodes; e++ {
				bar.Await(id)
			}
		}(i)
	}
	begin := time.Now()
	close(start)
	done.Wait()
	return float64(time.Since(begin).Nanoseconds()) / float64(episodes)
}
