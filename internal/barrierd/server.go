package barrierd

import (
	"fmt"
	"net"

	"fuzzybarrier/internal/transport"
)

// Service is a running shard set on one Network.
type Service struct {
	Shards []*Shard
	eps    []transport.Endpoint
}

// Start attaches cfg.Shards coordinator shards to nw. onStuck (may be
// nil) receives watchdog reports on the owning shard's dispatch
// context. The same code runs unmodified on SimNet, ChanNet and UDPNet.
func Start(nw transport.Network, cfg Config, onStuck func(StuckReport), sink transport.EventSink) (*Service, error) {
	cfg = cfg.withDefaults()
	svc := &Service{}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg, onStuck)
		r, ep, err := transport.AttachReliable(nw, ShardAddr(i),
			cfg.Reliable, func(r *transport.Reliable, m transport.Message) { sh.OnMessage(m) }, sink)
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("barrierd: attaching shard %d: %w", i, err)
		}
		sh.Start(ep, r)
		svc.Shards = append(svc.Shards, sh)
		svc.eps = append(svc.eps, ep)
	}
	return svc, nil
}

// StartUDP binds cfg.Shards shards on loopback UDP (ephemeral ports
// unless basePort > 0, in which case shard i takes basePort+i) and
// returns the service plus each shard's bound address, in shard order.
// Clients route with transport.UDPNet.Register(ShardAddr(i), addr).
func StartUDP(cfg Config, basePort int, onStuck func(StuckReport)) (*Service, *transport.UDPNet, []*net.UDPAddr, error) {
	cfg = cfg.withDefaults()
	nw := transport.NewUDPNet(0)
	svc := &Service{}
	var addrs []*net.UDPAddr
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg, onStuck)
		bind := "127.0.0.1:0"
		if basePort > 0 {
			bind = fmt.Sprintf("127.0.0.1:%d", basePort+i)
		}
		// AttachReliable can't carry the bind address; wire the cycle
		// by hand with the same ready-gate discipline.
		var r *transport.Reliable
		ready := make(chan struct{})
		ep, bound, err := nw.AttachListen(ShardAddr(i), func(m transport.Message) { <-ready; r.OnMessage(m) }, bind)
		if err != nil {
			nw.Close()
			return nil, nil, nil, fmt.Errorf("barrierd: binding shard %d: %w", i, err)
		}
		r = transport.NewReliable(ep, cfg.Reliable, sh.OnMessage, nil)
		close(ready)
		sh.Start(ep, r)
		svc.Shards = append(svc.Shards, sh)
		svc.eps = append(svc.eps, ep)
		addrs = append(addrs, bound)
	}
	return svc, nw, addrs, nil
}

// Close shuts the shard endpoints down.
func (svc *Service) Close() error {
	for _, ep := range svc.eps {
		ep.Close()
	}
	return nil
}
