package transport

import (
	"math"
	"strings"
	"testing"

	"fuzzybarrier/internal/des"
)

// relPair wires two Reliable layers over one SimNet and returns them
// plus the net. Delivered messages land in the out slices in order.
func relPair(t *testing.T, cfg SimConfig, rcfg ReliableConfig) (*SimNet, *Reliable, *Reliable, *[]Message, *[]Message) {
	t.Helper()
	net := NewSimNet(cfg)
	var outA, outB []Message
	var ra, rb *Reliable
	epA, err := net.Attach(1, func(m Message) { ra.OnMessage(m) })
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Attach(2, func(m Message) { rb.OnMessage(m) })
	if err != nil {
		t.Fatal(err)
	}
	ra = NewReliable(epA, rcfg, func(m Message) { outA = append(outA, m) }, nil)
	rb = NewReliable(epB, rcfg, func(m Message) { outB = append(outB, m) }, nil)
	return net, ra, rb, &outA, &outB
}

// TestReliableLossyDeliversExactlyOnce drives a lossy, jittery
// (reordering), duplicating link and checks every message is delivered
// to the application exactly once, in spite of retransmissions and
// network duplicates — the at-most-once receive side of the extracted
// reliability layer, plus the at-least-once retransmission side.
func TestReliableLossyDeliversExactlyOnce(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		cfg := SimConfig{Latency: 3, Jitter: 9, DropRate: 0.3, DupRate: 0.2, Seed: seed}
		net, ra, _, _, outB := relPair(t, cfg, SimReliable(3, 9))
		const n = 200
		ep := net.eps.Get(1)
		ep.Do(func() {
			for i := 0; i < n; i++ {
				ra.Send(2, Message{Kind: KindArrive, Group: 1, Epoch: int64(i)})
			}
		})
		_, ok := net.Run(2_000_000, func() bool { return ra.Unacked() == 0 && len(*outB) >= n })
		if !ok {
			t.Fatalf("seed %d: did not drain: unacked=%d delivered=%d", seed, ra.Unacked(), len(*outB))
		}
		if len(*outB) != n {
			t.Fatalf("seed %d: delivered %d messages, want exactly %d", seed, len(*outB), n)
		}
		// Exactly once: every epoch value appears once.
		seen := make(map[int64]bool)
		for _, m := range *outB {
			if seen[m.Epoch] {
				t.Fatalf("seed %d: epoch %d delivered twice", seed, m.Epoch)
			}
			seen[m.Epoch] = true
		}
		if net.Dropped == 0 || net.Duped == 0 {
			t.Fatalf("seed %d: fault model idle (drops=%d dups=%d) — test not exercising loss", seed, net.Dropped, net.Duped)
		}
		if ra.Stats.Retransmits == 0 {
			t.Fatalf("seed %d: no retransmissions despite %d drops", seed, net.Dropped)
		}
		if ra.Stats.Sends != n {
			t.Fatalf("seed %d: sends=%d want %d", seed, ra.Stats.Sends, n)
		}
	}
}

// TestReliableDupsReackedNotRedelivered pins the duplicate discipline:
// a duplicated delivery is acknowledged again (so the sender retires
// its pending record even if the first ack was lost) but never handed
// to the application twice.
func TestReliableDupsReackedNotRedelivered(t *testing.T) {
	cfg := SimConfig{Latency: 2, Jitter: 0, DupRate: 1.0, Seed: 7} // every transmission duplicated
	net, ra, rb, _, outB := relPair(t, cfg, SimReliable(2, 0))
	net.eps.Get(1).Do(func() { ra.Send(2, Message{Kind: KindJoin, Client: 5}) })
	net.Run(10_000, func() bool { return ra.Stats.Sends == 1 && ra.Unacked() == 0 })
	if len(*outB) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(*outB))
	}
	if rb.Stats.DupDropped == 0 {
		t.Fatal("duplicate was not detected")
	}
	// The duplicate contributed its seq to an ack batch.
	if rb.Stats.AcksCovered < 2 {
		t.Fatalf("acks covered %d seqs, want >= 2 (original + duplicate)", rb.Stats.AcksCovered)
	}
}

// TestReliableRTTAdaptsRTO checks the retransmission timeout is driven
// by the measured RTT: after a stream of acks on a calm link the
// effective RTO must fall well below the (deliberately huge) InitRTO,
// i.e. the stats.RTTEstimator is actually wired into the extracted path.
func TestReliableRTTAdaptsRTO(t *testing.T) {
	cfg := SimConfig{Latency: 5, Jitter: 0, Seed: 1}
	rcfg := ReliableConfig{InitRTO: 100_000, MaxRTO: 200_000, AckDelay: 1}
	net, ra, _, _, _ := relPair(t, cfg, rcfg)
	ep := net.eps.Get(1)
	for i := 0; i < 50; i++ {
		want := int64(i + 1)
		ep.Do(func() { ra.Send(2, Message{Kind: KindArrive}) })
		net.Run(0, func() bool { return ra.Stats.Sends == want && ra.Unacked() == 0 })
	}
	p := ra.peer(2)
	// RTT is ~11 ticks (2*latency + ack delay); the estimator must have
	// converged near that, nowhere near InitRTO.
	est := p.w.rtt.RTO()
	if est <= 0 {
		t.Fatal("estimator has no samples — not wired into the ack path")
	}
	if est < 5 || est > 200 {
		t.Fatalf("RTT-driven RTO estimate %.1f outside plausible [5,200] for an 11-tick RTT", est)
	}
	// nextRTO applies the InitRTO/4 floor (cluster's rule), so with this
	// deliberately huge InitRTO it must sit at exactly that floor — far
	// below InitRTO itself.
	if got := p.w.nextRTO(); got != rcfg.InitRTO/4 {
		t.Fatalf("nextRTO=%d, want clamp to InitRTO/4=%d", got, rcfg.InitRTO/4)
	}
}

// TestReliableKarnRule: acks for retransmitted messages must not feed
// the RTT estimator (the sample is ambiguous). With 100% first-copy
// loss the estimator must stay sampleless.
func TestReliableKarnRule(t *testing.T) {
	cfg := SimConfig{Latency: 2, Jitter: 0, DropRate: 0.9, Seed: 3}
	net, ra, _, _, outB := relPair(t, cfg, SimReliable(2, 0))
	net.eps.Get(1).Do(func() {
		for i := 0; i < 30; i++ {
			ra.Send(2, Message{Kind: KindArrive, Epoch: int64(i)})
		}
	})
	net.Run(1_000_000, func() bool { return ra.Stats.Sends == 30 && ra.Unacked() == 0 })
	if ra.Stats.Sends != 30 || ra.Unacked() != 0 {
		t.Fatalf("did not drain under 90%% loss: unacked=%d delivered=%d", ra.Unacked(), len(*outB))
	}
	p := ra.peer(2)
	// Messages acked on their first try may sample; any retransmitted
	// message must not have. Compare samples to first-try acks.
	if ra.Stats.Retransmits == 0 {
		t.Skip("no retransmissions at this seed")
	}
	est := p.w.rtt.RTO()
	if est > 0 && est < 4 {
		t.Fatalf("RTT estimate %.1f below the true RTT — a retransmission's ack leaked a bogus sample", est)
	}
}

// TestReliableAckCoalescing: many messages arriving inside one AckDelay
// window must produce far fewer ack datagrams than messages, and a full
// batch of ackBatch pending acks must flush at once instead of waiting.
func TestReliableAckCoalescing(t *testing.T) {
	cfg := SimConfig{Latency: 1, Jitter: 0, Seed: 1}
	rcfg := ReliableConfig{InitRTO: 1000, MaxRTO: 4000, AckDelay: 50}
	net, ra, rb, _, _ := relPair(t, cfg, rcfg)
	const n = 100
	net.eps.Get(1).Do(func() {
		for i := 0; i < n; i++ {
			ra.Send(2, Message{Kind: KindArrive, Epoch: int64(i)})
		}
	})
	net.Run(100_000, func() bool { return ra.Stats.Sends == n && ra.Unacked() == 0 })
	if ra.Stats.Sends != n || ra.Unacked() != 0 {
		t.Fatal("did not drain")
	}
	if rb.Stats.AcksCovered != n {
		t.Fatalf("acks covered %d seqs, want %d", rb.Stats.AcksCovered, n)
	}
	if rb.Stats.AcksSent >= n/4 {
		t.Fatalf("coalescing ineffective: %d ack datagrams for %d messages", rb.Stats.AcksSent, n)
	}
	// Batch path: with an AckDelay no run reaches, only full batches
	// flush, so 4 batches' worth of messages draw exactly 4 datagrams.
	const batches = 4
	rcfg2 := ReliableConfig{InitRTO: 1000, MaxRTO: 4000, AckDelay: 1 << 20}
	net2, ra2, rb2, _, _ := relPair(t, cfg, rcfg2)
	net2.eps.Get(1).Do(func() {
		for i := 0; i < batches*ackBatch; i++ {
			ra2.Send(2, Message{Kind: KindArrive, Epoch: int64(i)})
		}
	})
	net2.Run(100_000, func() bool { return ra2.Stats.Sends == batches*ackBatch && ra2.Unacked() == 0 })
	if ra2.Stats.Sends != batches*ackBatch || ra2.Unacked() != 0 {
		t.Fatal("batch-flush run did not drain (AckDelay timer should never have been needed)")
	}
	if rb2.Stats.AcksSent != batches {
		t.Fatalf("batch flush sent %d datagrams for %d acks with ackBatch=%d, want %d",
			rb2.Stats.AcksSent, batches*ackBatch, ackBatch, batches)
	}
}

// TestReliableSimByteIdenticalLog extends the cluster simulator's
// byte-identical replay guarantee to the extracted reliability layer:
// the same (seed, workload) on SimNet yields the same event log,
// byte for byte, including retransmissions and drops.
func TestReliableSimByteIdenticalLog(t *testing.T) {
	run := func() string {
		cfg := SimConfig{Latency: 3, Jitter: 6, DropRate: 0.25, DupRate: 0.1, Seed: 42, LogEvents: true}
		net := NewSimNet(cfg)
		var ra, rb *Reliable
		epA, _ := net.Attach(1, func(m Message) { ra.OnMessage(m) })
		epB, _ := net.Attach(2, func(m Message) { rb.OnMessage(m) })
		rcfg := SimReliable(3, 6)
		ra = NewReliable(epA, rcfg, func(m Message) {}, net)
		rb = NewReliable(epB, rcfg, func(m Message) { rb.Send(1, Message{Kind: KindRelease, Epoch: m.Epoch}) }, net)
		epA.Do(func() {
			for i := 0; i < 40; i++ {
				ra.Send(2, Message{Kind: KindArrive, Epoch: int64(i)})
			}
		})
		net.Run(1_000_000, func() bool {
			return ra.Stats.Sends == 40 && ra.Unacked() == 0 && rb.Unacked() == 0
		})
		return strings.Join(net.EventLog(), "\n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same seed produced different event logs over the extracted reliability layer")
	}
	if !strings.Contains(a, "retransmit") || !strings.Contains(a, "drop") {
		t.Fatal("log does not exercise retransmission/drop paths")
	}
}

// TestReliableUnreliableBypass: Seq==0 messages (acks are the protocol
// case) bypass dedup and retransmission entirely.
func TestReliableUnreliableBypass(t *testing.T) {
	cfg := SimConfig{Latency: 1, Seed: 1}
	net, ra, _, _, outB := relPair(t, cfg, SimReliable(1, 0))
	net.eps.Get(1).Do(func() {
		ep := net.eps.Get(1)
		ep.Send(2, Message{Kind: KindRelease, Epoch: 9}) // raw, Seq 0
	})
	net.Run(1000, nil)
	if ra.Unacked() != 0 {
		t.Fatal("unreliable send created pending state")
	}
	if len(*outB) != 1 || (*outB)[0].Epoch != 9 {
		t.Fatalf("unreliable message not delivered: %v", *outB)
	}
}

// TestStrayAcksCreateNoPeer: an ack from an address this side never sent
// to acknowledges nothing, so it is dropped without creating per-peer
// state. UDPNet learns any source address, so otherwise stray or spoofed
// acks would grow the peer table without bound. Stray acks come from the
// dense spans of the table and from past them; then datagrams from past
// the connection span are served as any others, through the table's map,
// and grow no dense slice.
func TestStrayAcksCreateNoPeer(t *testing.T) {
	net, ra, rb, outA, _ := relPair(t, SimConfig{Latency: 1, Seed: 1}, ReliableConfig{InitRTO: 1 << 20, AckDelay: 1 << 20})
	net.eps.Get(1).Do(func() { ra.Send(2, Message{Kind: KindArrive, Epoch: 1}) })
	net.Run(10, func() bool { return rb.Stats.Delivered == 1 })
	peers, unacked := len(ra.peers.All()), ra.Unacked()
	if peers != 1 || unacked != 1 {
		t.Fatalf("before the stray acks: %d peers, %d unacked; want 1 and 1 (the ack is held back)", peers, unacked)
	}
	dense := func(when string) {
		if lo, hi := len(ra.peers.lo), len(ra.peers.hi); lo > 3 || hi != 0 {
			t.Fatalf("%s: dense peer slices %d and %d long; only peer 2 is dense", when, lo, hi)
		}
	}
	for i := range 1000 {
		for _, from := range []Addr{Addr(100 + i), ConnAddrBase + Addr(i), ConnAddrBase + DenseBound + Addr(i), math.MaxUint32 - Addr(i)} {
			ra.OnMessage(Message{Kind: KindAck, From: from, To: 1, List: []uint64{1}})
		}
	}
	if len(ra.peers.All()) != peers || ra.Unacked() != unacked {
		t.Fatalf("after 4000 stray acks: %d peers, %d unacked; want %d and %d",
			len(ra.peers.All()), ra.Unacked(), peers, unacked)
	}
	dense("after the stray acks")
	for _, from := range []Addr{ConnAddrBase + DenseBound, math.MaxUint32, ConnAddrBase + DenseBound} {
		ra.OnMessage(Message{Kind: KindArrive, From: from, To: 1, Seq: 1, Epoch: int64(from)})
	}
	if len(*outA) != 2 || ra.Stats.DupDropped != 1 || len(ra.peers.All()) != peers+2 {
		t.Fatalf("datagrams from 2 sparse addresses, one twice: %d delivered, %d duplicates dropped, %d peers; want 2, 1 and %d",
			len(*outA), ra.Stats.DupDropped, len(ra.peers.All()), peers+2)
	}
	dense("after the sparse datagrams")
}

// TestReliableSteadyStateAllocatesNothing: two Reliable layers on a
// lossy, duplicating, jittery SimNet exchange a pre-built payload both
// ways. Once the windows, the event queue and the receive maps have
// reached their high-water marks, a burst — sends, acks and their
// coalescing timers, re-acked duplicates, retransmissions — allocates
// nothing: timer callbacks are bound once per peer or per pooled record,
// and ack lists are carved from a slab.
func TestReliableSteadyStateAllocatesNothing(t *testing.T) {
	nw := NewSimNet(SimConfig{Latency: 2, Jitter: 5, DropRate: 0.2, DupRate: 0.1, Seed: 9})
	var ra, rb *Reliable
	delivered := 0
	epA, _ := nw.Attach(1, func(m Message) { ra.OnMessage(m) })
	epB, _ := nw.Attach(2, func(m Message) { rb.OnMessage(m) })
	count := func(Message) { delivered++ }
	ra = NewReliable(epA, SimReliable(2, 5), count, nil)
	rb = NewReliable(epB, SimReliable(2, 5), count, nil)
	m := Message{Kind: KindArrive, Group: 1, Epoch: 3, List: []uint64{1, 2, 3}}
	drained := func() bool { return ra.Unacked() == 0 && rb.Unacked() == 0 }
	burst := func() { // between Runs the driving goroutine is every endpoint's dispatch context
		for range 8 {
			ra.Send(2, m)
			rb.Send(1, m)
		}
		if _, ok := nw.Run(nw.Now()+100_000, drained); !ok {
			t.Fatalf("burst did not drain: %s / %s", ra.PendingLine(), rb.PendingLine())
		}
	}
	for range 400 {
		burst()
	}
	before, dups := ra.Stats.Retransmits+rb.Stats.Retransmits, ra.Stats.DupDropped+rb.Stats.DupDropped
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Errorf("a burst of 16 reliable sends allocates %v times", n)
	}
	if ra.Stats.Retransmits+rb.Stats.Retransmits == before || ra.Stats.DupDropped+rb.Stats.DupDropped == dups {
		t.Fatalf("the measured bursts retransmitted %d and re-acked %d duplicates; want both > 0",
			ra.Stats.Retransmits+rb.Stats.Retransmits-before, ra.Stats.DupDropped+rb.Stats.DupDropped-dups)
	}
	if delivered == 0 {
		t.Fatal("nothing was delivered")
	}
}

// TestSeenMatchesSetReference holds the receive window (the floor, the
// 64-bit near window and the far map) against a plain set of delivered
// seqs: seeded streams of 1..n with duplicates, reordered over spans
// from a few seqs to several hundred, so seqs land below, inside and
// beyond the near window and far entries move into it as the floor
// passes them. Every arrival must be reported new exactly once.
func TestSeenMatchesSetReference(t *testing.T) {
	for seed := range uint64(200) {
		rng := des.NewRNG(seed)
		n, span := 300+int(rng.IntN(300)), 1+rng.IntN(400)
		var stream []uint64
		for seq := uint64(1); seq <= uint64(n); seq++ {
			for range 1 + rng.IntN(2) { // some seqs arrive twice
				stream = append(stream, seq)
			}
		}
		for i := range stream { // reorder each arrival within span of its place
			j := min(i+int(rng.IntN(span)), len(stream)-1)
			stream[i], stream[j] = stream[j], stream[i]
		}
		p := &relPeer{far: make(map[uint64]struct{})}
		ref := map[uint64]bool{}
		for i, seq := range stream {
			if got := (&Reliable{}).seen(p, seq); got != ref[seq] {
				t.Fatalf("seed %d, arrival %d (seq %d): seen %v, reference %v", seed, i, seq, got, ref[seq])
			}
			ref[seq] = true
		}
		if p.floor != uint64(n) || p.near != 0 || len(p.far) != 0 {
			t.Fatalf("seed %d: after every seq, floor %d near %#x far %d; want %d, 0, 0", seed, p.floor, p.near, len(p.far), n)
		}
	}
}
