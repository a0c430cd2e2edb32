package transport

import (
	"fmt"
	"sync/atomic"

	"fuzzybarrier/internal/trace"
)

// ReliableConfig tunes the reliability layer, in the transport's clock
// units (ticks on SimNet, nanoseconds on ChanNet/UDPNet).
type ReliableConfig struct {
	InitRTO int64 // retransmission timeout before any RTT sample
	MaxRTO  int64 // exponential-backoff cap

	// AckDelay is the coalescing window: an incoming reliable message
	// arms a flush timer this far out, and every ack accumulated by
	// then rides one KindAck datagram. 0 acks each message immediately
	// (still batched with anything already pending).
	AckDelay int64
}

// ackBatch flushes immediately once this many acks are pending,
// bounding datagram size and sender ring growth.
const ackBatch = 64

// withDefaults fills the derived knobs, mirroring cluster's RTO rules.
func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.InitRTO <= 0 {
		c.InitRTO = 1
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 16 * c.InitRTO
	}
	if c.MaxRTO < c.InitRTO {
		c.MaxRTO = c.InitRTO
	}
	return c
}

// RealtimeReliable returns the default tuning for the nanosecond-clock
// transports: 20ms initial RTO (a shade above any loopback RTT),
// 500ms backoff cap, 1ms ack coalescing.
func RealtimeReliable() ReliableConfig {
	const ms = int64(1e6)
	return ReliableConfig{InitRTO: 20 * ms, MaxRTO: 500 * ms, AckDelay: 1 * ms}
}

// SimReliable returns tuning for a SimNet with the given link
// parameters, mirroring cluster.Config's derivation: InitRTO a shade
// above the worst-case RTT, MaxRTO 16x that, acks coalesced for one
// tick.
func SimReliable(latency, jitter int64) ReliableConfig {
	rto := 2*(latency+jitter) + 2
	return ReliableConfig{InitRTO: rto, MaxRTO: 16 * rto, AckDelay: 1}
}

// ReliableStats counts the layer's work for reports and tests.
type ReliableStats struct {
	Sends       int64 // first transmissions of reliable messages
	Retransmits int64 // retransmission-timer firings that re-sent
	AcksSent    int64 // KindAck datagrams sent (each covers many seqs)
	AcksCovered int64 // sequence numbers those datagrams covered
	Delivered   int64 // reliable messages handed to the application
	DupDropped  int64 // duplicate deliveries suppressed (re-acked, not re-delivered)
}

// Reliable runs the reliability layer over one Endpoint: a Window per
// peer on the send side (sequence numbers, RTT-estimated retransmission
// with exponential backoff, Karn's rule, the lazy-cancel deadline queue
// — the core internal/cluster's outbox runs too), and idempotent receive
// on the other (per-peer dedup: duplicates are re-acked, never
// re-delivered) with per-connection ack coalescing. Of the send side,
// Reliable keeps only its timer arming: one Endpoint.After per peer,
// covering the window's earliest deadline, which retransmits every
// deadline due when it fires.
//
// All methods must be called on the endpoint's dispatch context (the
// Handler, After callbacks, or Do closures); the transports serialize
// those, so Reliable needs no locks — on SimNet it is fully
// deterministic.
type Reliable struct {
	ep      Endpoint
	cfg     ReliableConfig
	deliver Handler
	sink    EventSink

	peers map[Addr]*relPeer
	order []Addr // peer creation order, for deterministic reports

	armSeq uint64 // arm-sequence allocator (per instance: no cross-goroutine state)

	Stats ReliableStats
}

// relPeer is the per-peer reliability state.
type relPeer struct {
	addr Addr
	w    Window[Message]

	// Retransmit-timer coverage: at most one useful After outstanding,
	// recorded by its fire time; stale fires re-establish coverage.
	retxArmed bool
	retxAt    int64

	// Idempotent receive: seqs <= floor are delivered; ahead holds the
	// out-of-order seqs beyond it.
	floor uint64
	ahead map[uint64]struct{}

	ackPend  []uint64
	ackArmed bool
}

// NewReliable wraps ep. Delivered (deduplicated, non-ack) messages go
// to deliver on the dispatch context. sink, when non-nil, receives
// send/retransmit events (the transports log recv/drop themselves).
func NewReliable(ep Endpoint, cfg ReliableConfig, deliver Handler, sink EventSink) *Reliable {
	return &Reliable{
		ep: ep, cfg: cfg.withDefaults(), deliver: deliver, sink: sink,
		peers: make(map[Addr]*relPeer),
	}
}

// AttachReliable attaches a to nw and wraps the endpoint in a Reliable
// layer. deliver receives the layer itself so handlers can reply; the
// construction cycle (the endpoint's Handler needs the layer, the layer
// needs the endpoint) is closed through a sync point, so on the
// multi-goroutine transports a datagram dispatched before construction
// finishes waits instead of racing it. Once the layer is published the
// handler's whole cost is one atomic load per datagram.
func AttachReliable(nw Network, a Addr, cfg ReliableConfig, deliver func(r *Reliable, m Message), sink EventSink) (*Reliable, Endpoint, error) {
	var built atomic.Pointer[Reliable]
	ready := make(chan struct{})
	ep, err := nw.Attach(a, func(m Message) {
		r := built.Load()
		if r == nil {
			<-ready
			r = built.Load()
		}
		r.OnMessage(m)
	})
	if err != nil {
		return nil, nil, err
	}
	var r *Reliable
	r = NewReliable(ep, cfg, func(m Message) { deliver(r, m) }, sink)
	built.Store(r)
	close(ready)
	return r, ep, nil
}

func (r *Reliable) peer(a Addr) *relPeer {
	p := r.peers[a]
	if p == nil {
		p = &relPeer{addr: a, ahead: make(map[uint64]struct{})}
		p.w.Init(r.cfg.InitRTO, r.cfg.MaxRTO)
		r.peers[a] = p
		r.order = append(r.order, a)
	}
	return p
}

// Send transmits m to `to` reliably: it is retransmitted on an
// RTT-estimated timeout until the peer acknowledges its sequence
// number.
func (r *Reliable) Send(to Addr, m Message) {
	p := r.peer(to)
	m.From = r.ep.Addr()
	m.To = to
	m.Seq = p.w.Next()
	now := r.ep.Now()
	p.w.Track(m, m.Seq, now, r.nextArm())
	r.Stats.Sends++
	if r.sink != nil {
		r.sink.Event(now, r.ep.Addr(), trace.EvSend, "send "+m.String())
	}
	r.ep.Send(to, m)
	r.armRetx(p, now)
}

// nextArm consumes one arm sequence. Arm sequences are per-Reliable
// (each instance lives on one dispatch context): they only disambiguate
// re-armed entries within that instance's windows, and allocation order
// is deterministic on SimNet.
func (r *Reliable) nextArm() uint64 {
	r.armSeq++
	return r.armSeq
}

// armRetx establishes timer coverage for the peer's earliest deadline:
// arm only when no outstanding timer fires early enough.
func (r *Reliable) armRetx(p *relPeer, now int64) {
	e, ok := p.w.Head()
	if !ok || (p.retxArmed && p.retxAt <= e.Deadline) {
		return
	}
	p.retxArmed = true
	p.retxAt = e.Deadline
	r.ep.After(e.Deadline-now, func() { r.fireRetx(p, e.Deadline) })
}

// fireRetx retransmits every deadline that has expired, with backoff,
// and re-arms coverage.
func (r *Reliable) fireRetx(p *relPeer, at int64) {
	if p.retxArmed && p.retxAt == at {
		p.retxArmed = false
	}
	now := r.ep.Now()
	for e, ok := p.w.Due(); ok && e.Deadline <= now; e, ok = p.w.Due() {
		m, tries, rto := p.w.Retry(now, r.nextArm())
		r.Stats.Retransmits++
		if r.sink != nil {
			r.sink.Event(now, r.ep.Addr(), trace.EvRetransmit,
				fmt.Sprintf("retransmit %v try=%d rto=%d", m, tries, rto))
		}
		r.ep.Send(p.addr, m)
	}
	r.armRetx(p, now)
}

// OnMessage is the endpoint Handler: acks retire pending sends;
// everything else is acknowledged (coalesced) and — if not a duplicate
// — handed to the application. Wire this as the endpoint's Handler, or
// call it from one.
func (r *Reliable) OnMessage(m Message) {
	if m.Kind == KindAck {
		p := r.peer(m.From)
		now := r.ep.Now()
		for _, seq := range m.List {
			p.w.Ack(seq, now)
		}
		return
	}
	if m.Seq == 0 {
		r.deliver(m) // unreliable payload: no ack, no dedup
		return
	}
	p := r.peer(m.From)
	p.ackPend = append(p.ackPend, m.Seq)
	r.flushOrArmAcks(p)
	if r.seen(p, m.Seq) {
		r.Stats.DupDropped++
		return // duplicate: re-acked above, never re-delivered
	}
	r.Stats.Delivered++
	r.deliver(m)
}

// seen records seq in the peer's receive window, reporting whether it
// was already delivered.
func (r *Reliable) seen(p *relPeer, seq uint64) bool {
	if seq <= p.floor {
		return true
	}
	if _, dup := p.ahead[seq]; dup {
		return true
	}
	if seq == p.floor+1 {
		p.floor++
		for {
			if _, ok := p.ahead[p.floor+1]; !ok {
				break
			}
			delete(p.ahead, p.floor+1)
			p.floor++
		}
	} else {
		p.ahead[seq] = struct{}{}
	}
	return false
}

// flushOrArmAcks sends the pending acks when the batch is full,
// otherwise arms the coalescing timer.
func (r *Reliable) flushOrArmAcks(p *relPeer) {
	if len(p.ackPend) >= ackBatch {
		r.flushAcks(p)
		return
	}
	if p.ackArmed {
		return
	}
	p.ackArmed = true
	r.ep.After(r.cfg.AckDelay, func() {
		p.ackArmed = false
		r.flushAcks(p)
	})
}

// flushAcks coalesces every pending ack into one KindAck datagram
// (unreliable: a lost ack is regenerated by the retransmission it
// fails to suppress).
func (r *Reliable) flushAcks(p *relPeer) {
	if len(p.ackPend) == 0 {
		return
	}
	r.Stats.AcksSent++
	r.Stats.AcksCovered += int64(len(p.ackPend))
	list := make([]uint64, len(p.ackPend))
	copy(list, p.ackPend)
	p.ackPend = p.ackPend[:0]
	r.ep.Send(p.addr, Message{Kind: KindAck, List: list})
}

// Unacked returns the number of in-flight (sent, not yet acknowledged)
// reliable messages across peers.
func (r *Reliable) Unacked() int {
	total := 0
	for _, a := range r.order {
		total += r.peers[a].w.Live()
	}
	return total
}

// PendingLine renders the in-flight state for stuck reports, in peer
// creation order (deterministic on SimNet).
func (r *Reliable) PendingLine() string {
	s := fmt.Sprintf("unacked=%d", r.Unacked())
	for _, a := range r.order {
		if live := r.peers[a].w.Live(); live > 0 {
			s += fmt.Sprintf(" peer%d=%d", a, live)
		}
	}
	return s
}
