package transport

import (
	"fmt"
	"math"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/trace"
)

// SimConfig describes the simulated links — the same loss model as
// internal/cluster's network: every transmission independently draws
// latency (base + uniform jitter), a drop outcome and a duplication
// outcome from the run's seeded RNG. Jitter alone yields reordering.
type SimConfig struct {
	Latency  int64   // base one-way latency, ticks (default 1)
	Jitter   int64   // uniform extra latency in [0, Jitter]
	DropRate float64 // probability a transmission is lost
	DupRate  float64 // probability a transmission is delivered twice

	Seed uint64

	LogEvents bool // record the textual event log (EventLog)
}

// SimNet is the deterministic virtual-time Network: a single-threaded
// discrete-event loop over a des.Queue — events dispatch by time, and
// within one tick in the order they were scheduled, because each is
// keyed by the push counter seq — and a seeded fault model. A fixed
// (SimConfig, workload) replays byte-identically — the transcript
// guarantee TestBarrierdSimByteIdenticalTranscript pins for the whole
// barrierd stack, extending the cluster simulator's
// TestSameSeedByteIdenticalEventLog to the extracted reliability layer.
//
// The driving goroutine owns the loop: Attach endpoints, inject initial
// work with Endpoint.Do, then Run. Endpoint callbacks run inside Run;
// Do/After from outside the loop are only safe before Run or between
// Run calls.
type SimNet struct {
	cfg SimConfig
	q   *des.Queue[simEvent]
	seq uint64 // events scheduled so far: the in-tick key
	eps Table[Addr, simEndpoint]
	rng *des.RNG

	log []string

	// Fault counters, mirroring cluster.Sim's.
	Sent, Dropped, Duped, Delivered int64
}

// NewSimNet builds a simulated network.
func NewSimNet(cfg SimConfig) *SimNet {
	if cfg.Latency < 1 {
		cfg.Latency = 1
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	return &SimNet{
		cfg: cfg,
		// The wheel is sized from the link delay alone, and timers
		// longer than it ride the overflow heap: every bucket keeps the
		// capacity of its largest burst, and a wheel wide enough for the
		// slowest timer (2048 buckets) took sim-svc's heap peak from
		// 64-76 MB to 104-120 MB.
		q:   des.NewQueue[simEvent](cfg.Latency + cfg.Jitter),
		rng: des.NewRNG(des.Mix(cfg.Seed, 0x7A57E9)),
	}
}

// simEvent is one scheduled action, stored by value in the queue's
// arena: an After/Do callback (ep is the endpoint it runs on) or, with
// ep nil, the delivery of msg to whatever is attached at msg.To when it
// fires.
type simEvent struct {
	ep  *simEndpoint
	fn  func()
	msg Message
}

// Attach registers an endpoint.
func (s *SimNet) Attach(a Addr, h Handler) (Endpoint, error) {
	if s.eps.Get(a) != nil {
		return nil, fmt.Errorf("transport: sim address %d already attached", a)
	}
	ep := &simEndpoint{net: s, addr: a, h: h}
	s.eps.Put(a, ep)
	return ep, nil
}

// Close discards all endpoints and pending events.
func (s *SimNet) Close() error {
	s.eps = Table[Addr, simEndpoint]{}
	s.q.Clear()
	return nil
}

// Now returns the current virtual time.
func (s *SimNet) Now() int64 { return s.q.Now() }

// EventLog returns the recorded log lines (empty unless LogEvents).
func (s *SimNet) EventLog() []string { return s.log }

// schedule queues an event delay ticks from now (a negative delay is
// none) and returns it for the caller to fill in at once.
func (s *SimNet) schedule(delay int64) *simEvent {
	s.seq++
	return s.q.Push(des.Key{At: s.q.Now() + max(delay, 0), Pri: s.seq})
}

// Step executes the next event; false when the queue is empty.
func (s *SimNet) Step() bool { return s.step(math.MaxInt64) }

// step executes the next event unless it lies beyond tick limit. An
// event whose endpoint has closed, or whose destination is unattached,
// is consumed and does nothing.
func (s *SimNet) step(limit int64) bool {
	_, ev, ok := s.q.Pop(limit)
	if !ok {
		return false
	}
	switch {
	case ev.ep == nil:
		s.deliver(ev.msg)
	case !ev.ep.closed:
		ev.fn()
	}
	return true
}

// Run executes events until the queue drains, done() reports true, or
// the next event lies beyond tick maxTicks — an absolute virtual time,
// inclusive, not a span from Now: a second call continues with
// Run(Now()+n, …), and one whose maxTicks is behind Now runs nothing.
// maxTicks <= 0 means no budget. It returns the virtual time reached
// and whether done() was satisfied.
func (s *SimNet) Run(maxTicks int64, done func() bool) (int64, bool) {
	limit := int64(math.MaxInt64)
	if maxTicks > 0 {
		limit = maxTicks
	}
	for {
		if done != nil && done() {
			return s.Now(), true
		}
		if !s.step(limit) {
			return s.Now(), done == nil && s.q.Len() == 0
		}
	}
}

// Event implements EventSink on the simulator's transcript.
func (s *SimNet) Event(now int64, a Addr, kind trace.EventKind, msg string) {
	if s.cfg.LogEvents {
		s.log = append(s.log, fmt.Sprintf("t=%-8d a%-6d %-14s %s", now, a, kind, msg))
	}
}

// send runs the fault model for one transmission.
func (s *SimNet) send(m *Message) {
	s.Sent++
	copies := 1
	if s.cfg.DupRate > 0 && s.rng.Float() < s.cfg.DupRate {
		copies = 2
		s.Duped++
	}
	for c := 0; c < copies; c++ {
		if s.cfg.DropRate > 0 && s.rng.Float() < s.cfg.DropRate {
			s.Dropped++
			if s.cfg.LogEvents {
				s.Event(s.Now(), m.From, trace.EvDrop, "drop "+m.String())
			}
			continue
		}
		delay := s.cfg.Latency
		if s.cfg.Jitter > 0 {
			delay += s.rng.IntN(s.cfg.Jitter + 1)
		}
		s.schedule(delay).msg = *m
	}
}

// deliver hands one transmission to its destination (silently dropped
// when the address is unattached or closed, like a real datagram).
func (s *SimNet) deliver(m Message) {
	ep := s.eps.Get(m.To)
	if ep == nil || ep.closed {
		return
	}
	s.Delivered++
	if s.cfg.LogEvents {
		s.Event(s.Now(), m.To, trace.EvRecv, "recv "+m.String())
	}
	ep.h(m)
}

// simEndpoint is one attached participant of the virtual-time network.
type simEndpoint struct {
	net    *SimNet
	addr   Addr
	h      Handler
	closed bool
}

func (ep *simEndpoint) Addr() Addr { return ep.addr }
func (ep *simEndpoint) Now() int64 { return ep.net.Now() }

func (ep *simEndpoint) After(delay int64, fn func()) {
	ev := ep.net.schedule(delay)
	ev.ep, ev.fn = ep, fn
}

func (ep *simEndpoint) Do(fn func()) { ep.After(0, fn) }

func (ep *simEndpoint) Send(to Addr, m Message) {
	if ep.closed {
		return
	}
	m.From = ep.addr
	m.To = to
	ep.net.send(&m)
}

func (ep *simEndpoint) Close() error {
	ep.closed = true
	return nil
}
