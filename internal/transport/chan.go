package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// rtItem is one unit of work on a real-time endpoint's dispatch queue:
// either a delivered message or an injected closure (Do / fired timer).
type rtItem struct {
	m     Message
	fn    func()
	isMsg bool
}

// rtEndpoint is the shared dispatch machinery of the real-time
// transports (ChanNet, UDPNet): one goroutine drains a FIFO queue, so
// message handlers, timers and injected closures are serialized exactly
// as on the simulator, in one order. queueCap bounds the items queued
// plus the items of the batch being drained. At the cap, messages drop
// — the transport's loss model and exactly what the reliability layer
// exists to absorb — while closures block for space (they carry
// protocol obligations and must not be lost). The queue is a slice the
// loop swaps whole for its spare, so its memory is the most it has had
// queued at once, not the cap.
type rtEndpoint struct {
	addr     Addr
	h        Handler
	clock    func() int64
	transmit func(m Message)
	qcap     int

	mu       sync.Mutex
	q        []rtItem      // queued, FIFO
	draining int           // items in the loop's current batch, still counted against qcap
	parked   bool          // the loop found the queue empty and waits on wake
	closed   bool          // after Close: enqueue is a no-op, the loop exits
	blocked  int           // closures waiting on space
	space    sync.Cond     // signaled (on mu) when a batch frees its slots or at close
	wake     chan struct{} // 1 slot: the loop's park/unpark signal
	once     sync.Once
	wg       sync.WaitGroup

	drops atomic.Int64 // queue-overflow losses at this endpoint
}

func newRTEndpoint(addr Addr, h Handler, qcap int, clock func() int64, transmit func(Message)) *rtEndpoint {
	if qcap <= 0 {
		qcap = 1 << 14
	}
	ep := &rtEndpoint{
		addr: addr, h: h, clock: clock, transmit: transmit, qcap: qcap,
		wake: make(chan struct{}, 1),
	}
	ep.space.L = &ep.mu
	ep.wg.Add(1)
	go ep.loop()
	return ep
}

// loop takes the whole queue as one batch, leaving its spare in its
// place, dispatches the batch and releases its slots. Close is checked
// once per batch. An empty loop blocks at once. Yielding its P for a
// few µs first made the service about 2× faster only while a core sat
// idle, so its speed depended on what else the host was running.
func (ep *rtEndpoint) loop() {
	defer ep.wg.Done()
	var batch []rtItem
	ep.mu.Lock()
	for {
		for len(ep.q) == 0 && !ep.closed {
			ep.parked = true
			ep.mu.Unlock()
			<-ep.wake
			ep.mu.Lock()
		}
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		batch, ep.q = ep.q, batch[:0]
		ep.draining = len(batch)
		ep.mu.Unlock()
		for i := range batch {
			if it := &batch[i]; it.isMsg {
				ep.h(it.m)
			} else {
				it.fn()
			}
		}
		clear(batch) // drop the items' references before reuse
		ep.mu.Lock()
		ep.draining = 0
		if ep.blocked > 0 {
			ep.space.Broadcast()
		}
	}
}

// push appends it under mu (held by the caller, released here) and
// wakes the loop if it parked on an empty queue.
func (ep *rtEndpoint) push(it rtItem) {
	ep.q = append(ep.q, it)
	wake := ep.parked
	ep.parked = false
	ep.mu.Unlock()
	if wake {
		ep.signal()
	}
}

// signal posts the loop's wake-up; the slot holds at most one, and the
// loop re-checks the queue after every wake, so a full slot is enough.
func (ep *rtEndpoint) signal() {
	select {
	case ep.wake <- struct{}{}:
	default:
	}
}

func (ep *rtEndpoint) full() bool { return len(ep.q)+ep.draining >= ep.qcap }

// enqueueMsg delivers a datagram, dropping on overflow or after close.
func (ep *rtEndpoint) enqueueMsg(m Message) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	if ep.full() {
		ep.mu.Unlock()
		ep.drops.Add(1)
		return
	}
	ep.push(rtItem{m: m, isMsg: true})
}

// enqueueFn injects a closure; blocks rather than drop, and is a no-op
// after close.
func (ep *rtEndpoint) enqueueFn(fn func()) {
	ep.mu.Lock()
	for ep.full() && !ep.closed {
		ep.blocked++
		ep.space.Wait()
		ep.blocked--
	}
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.push(rtItem{fn: fn})
}

func (ep *rtEndpoint) Addr() Addr { return ep.addr }
func (ep *rtEndpoint) Now() int64 { return ep.clock() }

func (ep *rtEndpoint) After(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	time.AfterFunc(time.Duration(delay), func() { ep.enqueueFn(fn) })
}

func (ep *rtEndpoint) Do(fn func()) { ep.enqueueFn(fn) }

func (ep *rtEndpoint) Send(to Addr, m Message) {
	m.From = ep.addr
	m.To = to
	ep.transmit(m)
}

func (ep *rtEndpoint) Close() error {
	ep.once.Do(func() {
		ep.mu.Lock()
		ep.closed = true
		ep.space.Broadcast()
		ep.mu.Unlock()
		ep.signal()
	})
	ep.wg.Wait()
	return nil
}

// ChanNet is the in-process real-time Network: endpoints are dispatch
// goroutines, datagrams move by queue handoff, and the clock is
// nanoseconds since construction. Loss exists (queue overflow), so the
// reliability layer is exercised for real; there is no artificial
// latency beyond scheduling. This is the transport the million-client
// load runs use.
type ChanNet struct {
	mu    sync.RWMutex
	eps   map[Addr]*rtEndpoint
	start time.Time
	qcap  int
}

// NewChanNet builds an in-process network; queueCap bounds each
// endpoint's dispatch queue (<= 0 uses the 16384 default): the items
// not yet dispatched, past which messages drop and closures block. It
// is a bound, not a size: an endpoint's queue memory is what has been
// queued at once.
func NewChanNet(queueCap int) *ChanNet {
	return &ChanNet{eps: make(map[Addr]*rtEndpoint), start: time.Now(), qcap: queueCap}
}

// Attach registers an endpoint and starts its dispatch loop.
func (n *ChanNet) Attach(a Addr, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[a]; dup {
		return nil, fmt.Errorf("transport: chan address %d already attached", a)
	}
	ep := newRTEndpoint(a, h, n.qcap, n.now, func(m Message) { n.send(m) })
	n.eps[a] = ep
	return ep, nil
}

func (n *ChanNet) now() int64 { return time.Since(n.start).Nanoseconds() }

func (n *ChanNet) send(m Message) {
	n.mu.RLock()
	dst := n.eps[m.To]
	n.mu.RUnlock()
	if dst == nil {
		return // unattached address: datagram lost
	}
	dst.enqueueMsg(m)
}

// Drops returns the total queue-overflow losses across endpoints.
func (n *ChanNet) Drops() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var total int64
	for _, ep := range n.eps {
		total += ep.drops.Load()
	}
	return total
}

// Close shuts every endpoint down.
func (n *ChanNet) Close() error {
	n.mu.Lock()
	eps := n.eps
	n.eps = make(map[Addr]*rtEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}
