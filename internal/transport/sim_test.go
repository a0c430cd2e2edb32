package transport

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fuzzybarrier/internal/des"
)

// The schedule program below runs twice from one seed — on SimNet and
// on refNet, a reference that keeps every event in one slice and finds
// the next by sorting on (at, seq) — and must fire the same events at
// the same ticks in the same order on both.

// progHost is what the program schedules on.
type progHost interface {
	now() int64
	after(ep int, delay int64, id int) // fire id on ep after delay
	send(from, to int, id int)         // fire id on to, one link latency later
	close(ep int)
}

const (
	progEndpoints = 8    // endpoint progEndpoints itself is never attached
	progLatency   = 3    // no jitter, drops or dups: the reference has no fault model
	progSpan      = 2048 // des's wheel span; delays straddle it
)

var progDelays = []int64{0, 0, 0, 1, 2, 5, progSpan - 1, progSpan, progSpan + 1, 3 * progSpan, 25 * progSpan}

// schedProg is a random branching process: every firing logs itself and
// schedules up to three more. Its RNG is consumed in dispatch order, so
// one out-of-order dispatch changes everything after it.
type schedProg struct {
	host   progHost
	rnd    *des.RNG
	budget int // firings still allowed to schedule children
	nextID int
	fired  []string
}

func (p *schedProg) spawn(ep int) {
	p.nextID++
	switch to := int(p.rnd.IntN(progEndpoints + 1)); p.rnd.IntN(4) {
	case 0:
		p.host.send(ep, to, p.nextID)
	default:
		p.host.after(ep, progDelays[p.rnd.IntN(int64(len(progDelays)))], p.nextID)
	}
}

func (p *schedProg) fire(ep, id int) {
	p.fired = append(p.fired, fmt.Sprintf("%d on %d at %d", id, ep, p.host.now()))
	for n := p.rnd.IntN(4); n > 0 && p.budget > 0; n-- {
		p.budget--
		p.spawn(ep)
	}
	if ep != 0 && p.rnd.IntN(800) == 0 {
		p.host.close(ep) // whatever is in flight to ep must now be skipped
	}
}

type simHost struct {
	nw  *SimNet
	eps []Endpoint
	p   *schedProg
}

func (h *simHost) now() int64   { return h.nw.Now() }
func (h *simHost) close(ep int) { h.eps[ep].Close() }
func (h *simHost) send(from, to, id int) {
	h.eps[from].Send(Addr(to), Message{Client: uint64(id)})
}
func (h *simHost) after(ep int, delay int64, id int) {
	fn := func() { h.p.fire(ep, id) }
	if delay == 0 && id%2 == 0 {
		h.eps[ep].Do(fn)
		return
	}
	h.eps[ep].After(delay, fn)
}

type refEvent struct {
	at     int64
	seq    uint64
	ep, id int
}

type refNet struct {
	t      int64
	seq    uint64
	evs    []refEvent
	closed [progEndpoints + 1]bool // the unattached endpoint counts as closed
	p      *schedProg
}

func (r *refNet) now() int64   { return r.t }
func (r *refNet) close(ep int) { r.closed[ep] = true }
func (r *refNet) after(ep int, delay int64, id int) {
	r.seq++
	r.evs = append(r.evs, refEvent{r.t + delay, r.seq, ep, id})
}
func (r *refNet) send(from, to, id int) {
	if !r.closed[from] {
		r.after(to, progLatency, id)
	}
}

// step is SimNet.step's contract: consume the earliest event unless it
// lies beyond limit, firing it only if its endpoint is still open.
func (r *refNet) step(limit int64) bool {
	sort.Slice(r.evs, func(i, j int) bool {
		a, b := r.evs[i], r.evs[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	if len(r.evs) == 0 || r.evs[0].at > limit {
		return false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	r.t = ev.at
	if !r.closed[ev.ep] {
		r.p.fire(ev.ep, ev.id)
	}
	return true
}

// run is SimNet.Run's contract.
func (r *refNet) run(maxTicks int64, done func() bool) (int64, bool) {
	for {
		if done != nil && done() {
			return r.t, true
		}
		if !r.step(maxTicks) {
			return r.t, done == nil && len(r.evs) == 0
		}
	}
}

func TestSimNetMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		nw := NewSimNet(SimConfig{Latency: progLatency, Seed: seed})
		sim := &simHost{nw: nw, p: &schedProg{rnd: des.NewRNG(seed), budget: 3000}}
		sim.p.host = sim
		for i := 0; i < progEndpoints; i++ {
			i := i
			ep, err := nw.Attach(Addr(i), func(m Message) { sim.p.fire(i, int(m.Client)) })
			if err != nil {
				t.Fatal(err)
			}
			sim.eps = append(sim.eps, ep)
		}
		ref := &refNet{p: &schedProg{rnd: des.NewRNG(seed), budget: 3000}}
		ref.p.host = ref
		ref.closed[progEndpoints] = true

		same := func(what string) {
			t.Helper()
			if nw.Now() != ref.t || len(sim.p.fired) != len(ref.p.fired) {
				t.Fatalf("seed %d, %s: SimNet at tick %d after %d firings, reference at %d after %d",
					seed, what, nw.Now(), len(sim.p.fired), ref.t, len(ref.p.fired))
			}
		}
		drive := des.NewRNG(des.Mix(seed, 1))
		for round := 0; ; round++ {
			// Outside the loop, at whatever tick the last call stopped
			// on (a maxTicks boundary included), both get new work.
			n := drive.IntN(3)
			if round == 0 {
				n = 4
			}
			for ; n > 0; n-- {
				ep := int(drive.IntN(progEndpoints))
				sim.p.spawn(ep)
				ref.p.spawn(ep)
			}
			switch drive.IntN(3) {
			case 0:
				for n := drive.IntN(40); n >= 0; n-- {
					if a, b := nw.Step(), ref.step(math.MaxInt64); a != b {
						t.Fatalf("seed %d: Step = %v, reference %v", seed, a, b)
					}
					same("Step")
				}
			case 1:
				limit := nw.Now() + 1 + progDelays[drive.IntN(int64(len(progDelays)))]
				_, a := nw.Run(limit, nil)
				_, b := ref.run(limit, nil)
				if a != b {
					t.Fatalf("seed %d: Run(%d) drained = %v, reference %v", seed, limit, a, b)
				}
				same("Run to a tick budget")
			case 2:
				target := len(sim.p.fired) + int(drive.IntN(60))
				limit := nw.Now() + 30*progSpan
				_, a := nw.Run(limit, func() bool { return len(sim.p.fired) >= target })
				_, b := ref.run(limit, func() bool { return len(ref.p.fired) >= target })
				if a != b {
					t.Fatalf("seed %d: Run(done) = %v, reference %v", seed, a, b)
				}
				same("Run to a done condition")
			}
			if sim.p.budget == 0 && len(ref.evs) == 0 {
				break
			}
		}
		if nw.Step() {
			t.Fatalf("seed %d: SimNet still had an event after the reference drained", seed)
		}
		if len(sim.p.fired) < 1000 {
			t.Fatalf("seed %d: only %d firings — the program died out", seed, len(sim.p.fired))
		}
		for i := range ref.p.fired {
			if sim.p.fired[i] != ref.p.fired[i] {
				t.Fatalf("seed %d: firing %d was %q, reference %q", seed, i, sim.p.fired[i], ref.p.fired[i])
			}
		}
	}
}

// TestSimNetSteadyStateAllocatesNothing: once the event queue has
// reached its high-water mark, neither a datagram (Send through the
// fault model to the handler) nor a timer with a pre-built callback
// allocates.
func TestSimNetSteadyStateAllocatesNothing(t *testing.T) {
	nw := NewSimNet(SimConfig{Latency: 2, Jitter: 5, DropRate: 0.1, DupRate: 0.1, Seed: 3})
	got := 0
	a, err := nw.Attach(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(2, func(Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	m := Message{Kind: KindArrive, Group: 1, List: []uint64{1, 2, 3}}
	send := func() {
		for i := 0; i < 8; i++ {
			a.Send(2, m)
		}
		nw.Run(0, nil)
	}
	fn := func() { got++ }
	timer := func() {
		a.After(3, fn)
		a.Do(fn)
		nw.Run(0, nil)
	}
	// The queue's high-water mark includes the capacity of every wheel
	// bucket, and which buckets a burst lands on shifts with each
	// revolution: warm for a good sixteen of them (a send advances Now
	// by at most Latency+Jitter = 7 ticks, the wheel is 64 wide).
	for nw.Now() < 16*64 {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("Send -> deliver allocates %v times per 8 datagrams", n)
	}
	if n := testing.AllocsPerRun(200, timer); n != 0 {
		t.Errorf("After/Do with a pre-built fn allocates %v times", n)
	}
	if got == 0 {
		t.Fatal("nothing was delivered")
	}
}

// TestSimNetRunBudgetIsAnAbsoluteTick pins Run's maxTicks: the last
// tick it may execute, inclusive, not a span from Now — so a second
// call must add Now itself, and a budget behind Now runs nothing and
// moves nothing.
func TestSimNetRunBudgetIsAnAbsoluteTick(t *testing.T) {
	nw := NewSimNet(SimConfig{})
	ep, err := nw.Attach(1, func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int64
	for _, d := range []int64{10, 20, 30} {
		ep.After(d, func() { fired = append(fired, nw.Now()) })
	}
	if now, drained := nw.Run(20, nil); now != 20 || drained || len(fired) != 2 {
		t.Fatalf("Run(20) = (%d, %v) after firing %v; want (20, false) with the timers at 10 and 20 fired", now, drained, fired)
	}
	if now, drained := nw.Run(15, nil); now != 20 || drained || len(fired) != 2 {
		t.Fatalf("Run(15) at tick 20 = (%d, %v) after firing %v; want nothing run", now, drained, fired)
	}
	ep.After(0, func() { fired = append(fired, nw.Now()) }) // Now is still pushable
	if now, drained := nw.Run(nw.Now()+10, nil); now != 30 || !drained || len(fired) != 4 || fired[2] != 20 {
		t.Fatalf("Run(Now+10) = (%d, %v) after firing %v; want (30, true) with 20 then 30 fired", now, drained, fired)
	}
}
