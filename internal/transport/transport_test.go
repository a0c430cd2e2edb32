package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runEcho drives the same reliable request/response workload over any
// Network: endpoint 1 sends n KindArrive messages to endpoint 2, which
// echoes each back as a KindRelease. Both directions run through
// Reliable. Returns (requests delivered at 2, responses delivered at 1).
func runEcho(t *testing.T, nw Network, n int, wait func(done func() bool) bool) (int, int) {
	t.Helper()
	var mu sync.Mutex
	gotReq, gotResp := 0, 0
	rcfg := ReliableConfig{InitRTO: int64(20 * time.Millisecond), MaxRTO: int64(200 * time.Millisecond), AckDelay: int64(time.Millisecond)}
	if _, sim := nw.(*SimNet); sim {
		rcfg = SimReliable(2, 4)
	}
	ra, epA, err := AttachReliable(nw, 1, rcfg, func(_ *Reliable, m Message) {
		mu.Lock()
		gotResp++
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = AttachReliable(nw, 2, rcfg, func(r *Reliable, m Message) {
		mu.Lock()
		gotReq++
		mu.Unlock()
		r.Send(1, Message{Kind: KindRelease, Group: m.Group, Epoch: m.Epoch})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	epA.Do(func() {
		for i := 0; i < n; i++ {
			ra.Send(2, Message{Kind: KindArrive, Group: 1, Epoch: int64(i)})
		}
	})
	done := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotReq >= n && gotResp >= n
	}
	if !wait(done) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("echo did not complete: req=%d resp=%d of %d", gotReq, gotResp, n)
	}
	mu.Lock()
	defer mu.Unlock()
	return gotReq, gotResp
}

// waitRealtime polls done for the real-time transports.
func waitRealtime(done func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if done() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return done()
}

func TestEchoAcrossTransports(t *testing.T) {
	const n = 100
	t.Run("sim", func(t *testing.T) {
		nw := NewSimNet(SimConfig{Latency: 2, Jitter: 4, DropRate: 0.2, DupRate: 0.1, Seed: 5})
		defer nw.Close()
		req, resp := runEcho(t, nw, n, func(done func() bool) bool {
			_, ok := nw.Run(10_000_000, done)
			return ok
		})
		if req != n || resp != n {
			t.Fatalf("exactly-once violated: req=%d resp=%d", req, resp)
		}
	})
	t.Run("chan", func(t *testing.T) {
		nw := NewChanNet(0)
		defer nw.Close()
		req, resp := runEcho(t, nw, n, waitRealtime)
		if req != n || resp != n {
			t.Fatalf("exactly-once violated: req=%d resp=%d", req, resp)
		}
	})
	t.Run("udp", func(t *testing.T) {
		nw := NewUDPNet(0)
		defer nw.Close()
		req, resp := runEcho(t, nw, n, waitRealtime)
		if req != n || resp != n {
			t.Fatalf("exactly-once violated: req=%d resp=%d", req, resp)
		}
	})
}

// TestUDPRouteLearning: only the client knows the server's address up
// front; the server must learn the client's route from its first
// datagram's source address to reply at all.
func TestUDPRouteLearning(t *testing.T) {
	// Two independent UDPNets = two "processes": routes are not shared.
	srvNet := NewUDPNet(0)
	defer srvNet.Close()
	cliNet := NewUDPNet(0)
	defer cliNet.Close()

	var got []Message
	var mu sync.Mutex
	rcfg := RealtimeReliable()
	var rs *Reliable
	ready := make(chan struct{})
	srvEP, srvAddr, err := srvNet.AttachListen(1, func(m Message) { <-ready; rs.OnMessage(m) }, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs = NewReliable(srvEP, rcfg, func(m Message) {
		rs.Send(m.From, Message{Kind: KindJoinOK, Client: m.Client, Epoch: 7})
	}, nil)
	close(ready)

	rc, cliEP, err := AttachReliable(cliNet, ConnAddrBase, rcfg, func(_ *Reliable, m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cliNet.Register(1, srvAddr.String()); err != nil {
		t.Fatal(err)
	}
	cliEP.Do(func() { rc.Send(1, Message{Kind: KindJoin, Client: 42}) })
	ok := waitRealtime(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	})
	if !ok {
		t.Fatal("server reply never arrived — route learning failed")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Kind != KindJoinOK || got[0].Client != 42 || got[0].Epoch != 7 {
		t.Fatalf("bad reply: %v", got[0])
	}
}

// TestChanNetOverflowDrops: a stalled endpoint's queue overflows and
// drops datagrams rather than blocking the sender — the loss model the
// reliability layer absorbs.
func TestChanNetOverflowDrops(t *testing.T) {
	nw := NewChanNet(4)
	defer nw.Close()
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	_, err := nw.Attach(2, func(m Message) {
		once.Do(func() { close(first) })
		<-block // stall the dispatch loop
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Attach(1, func(m Message) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ep.Send(2, Message{Kind: KindArrive, Seq: uint64(i + 1)})
	}
	<-first
	close(block)
	if nw.Drops() == 0 {
		t.Fatal("64 sends into a capacity-4 stalled queue produced no drops")
	}
}

// rtNets are the real-time networks, with a way to reach an endpoint's
// dispatch queue.
var rtNets = []struct {
	name string
	make func(queueCap int) Network
	rt   func(nw Network, a Addr) *rtEndpoint
}{
	{"chan", func(c int) Network { return NewChanNet(c) }, func(nw Network, a Addr) *rtEndpoint {
		n := nw.(*ChanNet)
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.eps[a]
	}},
	{"udp", func(c int) Network { return NewUDPNet(c) }, func(nw Network, a Addr) *rtEndpoint {
		n := nw.(*UDPNet)
		n.mu.RLock()
		defer n.mu.RUnlock()
		return n.eps[a].rt
	}},
}

// pending is what counts against an endpoint's cap: queued items plus
// the batch being drained.
func (ep *rtEndpoint) pending() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.q) + ep.draining
}

// waiting is the number of closures blocked on a full queue.
func (ep *rtEndpoint) waiting() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.blocked
}

// stallNet attaches endpoint 2 with a handler that records each
// message's Seq (closures record 0 via record) and blocks on the first
// message until release is closed, and endpoint 1 as a sender.
type stallNet struct {
	nw       Network
	src, dst Endpoint
	rt       *rtEndpoint
	started  chan struct{} // closed when the first message reaches the handler
	release  chan struct{}

	mu    sync.Mutex
	order []uint64
}

func newStallNet(t *testing.T, makeNet func(int) Network, rtOf func(Network, Addr) *rtEndpoint, queueCap int) *stallNet {
	t.Helper()
	s := &stallNet{nw: makeNet(queueCap), started: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	var err error
	s.dst, err = s.nw.Attach(2, func(m Message) {
		s.record(m.Seq)
		once.Do(func() { close(s.started) })
		<-s.release
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.src, err = s.nw.Attach(1, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	s.rt = rtOf(s.nw, 2)
	return s
}

func (s *stallNet) record(seq uint64) {
	s.mu.Lock()
	s.order = append(s.order, seq)
	s.mu.Unlock()
}

func (s *stallNet) delivered() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.order...)
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !waitRealtime(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestRTQueueKeepsChannelBounds holds the dispatch queue to the
// contracts of the buffered channel it replaced, on both real-time
// networks: queueCap counts every undispatched item, messages past it
// drop, closures past it block until the loop frees space and then run
// in FIFO order, and Close releases a blocked closure and turns later
// ones into no-ops.
func TestRTQueueKeepsChannelBounds(t *testing.T) {
	for _, tn := range rtNets {
		t.Run(tn.name+"/overflow", func(t *testing.T) {
			const qcap, sent = 4, 64
			s := newStallNet(t, tn.make, tn.rt, qcap)
			defer s.nw.Close()
			for i := 0; i < sent; i++ {
				s.src.Send(2, Message{Kind: KindArrive, Seq: uint64(i + 1)})
			}
			<-s.started
			// Every datagram is either held (queued or in the stalled batch) or dropped.
			waitFor(t, "every datagram held or dropped", func() bool {
				return int64(s.rt.pending())+s.rt.drops.Load() == sent
			})
			close(s.release)
			waitFor(t, "the queue to drain", func() bool {
				return int64(len(s.delivered()))+s.rt.drops.Load() == sent
			})
			got, drops := len(s.delivered()), s.rt.drops.Load()
			if got > qcap+1 {
				t.Fatalf("delivered %d through a capacity-%d queue", got, qcap)
			}
			if drops == 0 {
				t.Fatalf("%d sends into a capacity-%d stalled queue produced no drops", sent, qcap)
			}
		})
		t.Run(tn.name+"/do-blocks-at-cap", func(t *testing.T) {
			const qcap = 4
			s := newStallNet(t, tn.make, tn.rt, qcap)
			defer s.nw.Close()
			for i := 0; i < qcap; i++ {
				s.src.Send(2, Message{Kind: KindArrive, Seq: uint64(i + 1)})
			}
			<-s.started
			waitFor(t, "a full queue", func() bool { return s.rt.pending() == qcap })
			var returned atomic.Bool
			go func() {
				s.dst.Do(func() { s.record(0) })
				returned.Store(true)
			}()
			waitFor(t, "Do to block", func() bool { return s.rt.waiting() == 1 })
			if returned.Load() {
				t.Fatal("Do returned while the queue was at its cap")
			}
			close(s.release)
			waitFor(t, "the blocked Do to run", func() bool { return len(s.delivered()) == qcap+1 })
			if want, got := []uint64{1, 2, 3, 4, 0}, s.delivered(); !equalSeqs(got, want) {
				t.Fatalf("dispatch order %v, want %v", got, want)
			}
			if !returned.Load() {
				t.Fatal("Do ran but did not return")
			}
		})
		t.Run(tn.name+"/close-releases-do", func(t *testing.T) {
			s := newStallNet(t, tn.make, tn.rt, 1)
			s.src.Send(2, Message{Kind: KindArrive, Seq: 1})
			<-s.started
			doReturned := make(chan struct{})
			go func() {
				s.dst.Do(func() { s.record(0) })
				close(doReturned)
			}()
			waitFor(t, "Do to block", func() bool { return s.rt.waiting() == 1 })
			closed := make(chan struct{})
			go func() { s.dst.Close(); close(closed) }()
			select {
			case <-doReturned:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not release a Do blocked on a full queue")
			}
			close(s.release)
			<-closed
			s.dst.Do(func() { s.record(0) }) // must return at once
			if got := s.delivered(); !equalSeqs(got, []uint64{1}) {
				t.Fatalf("dispatched %v; closures blocked at or issued after Close must not run", got)
			}
			s.nw.Close()
		})
	}
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAttachAllocatesNoQueueSlab: an endpoint's queue costs what is
// queued, not its cap — six attaches at the cap the load drivers use
// allocate well under one cap's worth of items.
func TestAttachAllocatesNoQueueSlab(t *testing.T) {
	nw := NewChanNet(1 << 15)
	defer nw.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for a := Addr(1); a <= 6; a++ {
		if _, err := nw.Attach(a, func(Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("6 attaches at queueCap 1<<15 allocated %d B, want < 256 KiB", got)
	}
}

// BenchmarkRTEndpointHandoff: ns per message from Send to the
// destination's handler on ChanNet, one message in flight at a time
// (every message wakes a parked loop) and in bursts of 64.
func BenchmarkRTEndpointHandoff(b *testing.B) {
	for _, burst := range []struct {
		name string
		n    int
	}{{"one-at-a-time", 1}, {"burst-64", 64}} {
		b.Run(burst.name, func(b *testing.B) {
			nw := NewChanNet(1 << 15)
			defer nw.Close()
			var seen int
			done := make(chan struct{}, 1)
			if _, err := nw.Attach(2, func(Message) {
				if seen++; seen == burst.n {
					seen = 0
					done <- struct{}{}
				}
			}); err != nil {
				b.Fatal(err)
			}
			src, err := nw.Attach(1, func(Message) {})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for sent := 0; sent < b.N; sent += burst.n {
				for i := 0; i < burst.n; i++ {
					src.Send(2, Message{Kind: KindArrive})
				}
				<-done
			}
			b.StopTimer()
			if d := nw.Drops(); d != 0 {
				b.Fatalf("%d drops", d)
			}
		})
	}
}
