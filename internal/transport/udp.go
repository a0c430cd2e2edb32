package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// UDPNet is the real-socket Network: each endpoint binds a UDP socket,
// datagrams are Message-encoded on the wire (the fuzz-tested codec),
// and routing is production-shaped — servers are registered statically
// (Register), clients are learned dynamically from the source address
// of their first datagram, exactly how a UDP service meets its callers.
// Loss, duplication and reordering are whatever the real network path
// provides (on loopback: effectively reordering under load and drops
// when socket buffers overflow).
type UDPNet struct {
	mu     sync.RWMutex
	eps    map[Addr]*udpEndpoint
	routes map[Addr]*net.UDPAddr
	start  time.Time
	qcap   int
}

// NewUDPNet builds a UDP network; queueCap bounds each endpoint's
// dispatch queue exactly as for NewChanNet (<= 0 uses the default):
// received datagrams past it drop, closures block, and the queue's
// memory is what has been queued at once.
func NewUDPNet(queueCap int) *UDPNet {
	return &UDPNet{
		eps:    make(map[Addr]*udpEndpoint),
		routes: make(map[Addr]*net.UDPAddr),
		start:  time.Now(),
		qcap:   queueCap,
	}
}

// Attach binds an ephemeral loopback socket for a.
func (n *UDPNet) Attach(a Addr, h Handler) (Endpoint, error) {
	ep, _, err := n.AttachListen(a, h, "127.0.0.1:0")
	return ep, err
}

// AttachListen binds the given UDP address (host:port; port 0 for
// ephemeral) for a and returns the endpoint plus the bound address.
func (n *UDPNet) AttachListen(a Addr, h Handler, bind string) (Endpoint, *net.UDPAddr, error) {
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: resolving %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: binding %q: %w", bind, err)
	}
	n.mu.Lock()
	if _, dup := n.eps[a]; dup {
		n.mu.Unlock()
		conn.Close()
		return nil, nil, fmt.Errorf("transport: udp address %d already attached", a)
	}
	ep := &udpEndpoint{net: n, conn: conn}
	ep.rt = newRTEndpoint(a, h, n.qcap, n.now, ep.transmit)
	n.eps[a] = ep
	// Self-register: endpoints sharing this UDPNet can route to each
	// other without explicit Register calls.
	n.routes[a] = conn.LocalAddr().(*net.UDPAddr)
	n.mu.Unlock()
	ep.wg.Add(1)
	go ep.read()
	return ep, conn.LocalAddr().(*net.UDPAddr), nil
}

// Register installs a static route: datagrams for a go to hostport.
// Servers register each other at startup; clients need only the shard
// routes they dial.
func (n *UDPNet) Register(a Addr, hostport string) error {
	u, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return fmt.Errorf("transport: resolving route %q: %w", hostport, err)
	}
	n.mu.Lock()
	n.routes[a] = u
	n.mu.Unlock()
	return nil
}

func (n *UDPNet) now() int64 { return time.Since(n.start).Nanoseconds() }

// learn records the sender's socket address so replies can route back;
// a rebinding peer (new source address) overwrites its stale route.
func (n *UDPNet) learn(a Addr, src *net.UDPAddr) {
	n.mu.RLock()
	cur := n.routes[a]
	n.mu.RUnlock()
	if cur != nil && cur.Port == src.Port && cur.IP.Equal(src.IP) {
		return
	}
	n.mu.Lock()
	n.routes[a] = src
	n.mu.Unlock()
}

func (n *UDPNet) route(a Addr) *net.UDPAddr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.routes[a]
}

// Close shuts every endpoint down.
func (n *UDPNet) Close() error {
	n.mu.Lock()
	eps := n.eps
	n.eps = make(map[Addr]*udpEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// udpEndpoint pairs a socket with the shared dispatch loop.
type udpEndpoint struct {
	net  *UDPNet
	rt   *rtEndpoint
	conn *net.UDPConn
	wg   sync.WaitGroup
	once sync.Once
}

// read is the socket pump: decode, learn the sender's route, dispatch.
func (ep *udpEndpoint) read() {
	defer ep.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		nb, src, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		m, err := Decode(buf[:nb])
		if err != nil {
			continue // not a message: ignored
		}
		ep.net.learn(m.From, src)
		ep.rt.enqueueMsg(m)
	}
}

// transmit encodes and writes one datagram; unroutable or oversized
// datagrams are dropped (the reliability layer retries once the route
// is learned).
func (ep *udpEndpoint) transmit(m Message) {
	dst := ep.net.route(m.To)
	if dst == nil {
		return
	}
	ep.conn.WriteToUDP(m.Encode(), dst)
}

func (ep *udpEndpoint) Addr() Addr                   { return ep.rt.Addr() }
func (ep *udpEndpoint) Now() int64                   { return ep.rt.Now() }
func (ep *udpEndpoint) After(delay int64, fn func()) { ep.rt.After(delay, fn) }
func (ep *udpEndpoint) Do(fn func())                 { ep.rt.Do(fn) }
func (ep *udpEndpoint) Send(to Addr, m Message) {
	m.From = ep.rt.addr
	m.To = to
	ep.transmit(m)
}

func (ep *udpEndpoint) Close() error {
	ep.once.Do(func() {
		ep.conn.Close()
		ep.wg.Wait()
		ep.rt.Close()
	})
	return nil
}
