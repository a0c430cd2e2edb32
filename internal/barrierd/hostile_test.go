package barrierd

import (
	"fmt"
	"math"
	"testing"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/phase"
	"fuzzybarrier/internal/transport"
)

// shardState renders everything the shards hold, counters aside. fmt
// prints maps in key order, so two renderings compare.
func shardState(svc *Service) string {
	out := ""
	for _, sh := range svc.Shards {
		groups := map[uint32]string{}
		for g, gs := range sh.groups {
			s := fmt.Sprintf("released=%d %+v signals=%v", gs.released, gs.ph, gs.signals)
			for _, ch := range gs.kids {
				s += fmt.Sprintf(" [%d %+v %v]", ch.addr, ch.census, ch.sig)
			}
			groups[g] = s
		}
		out += fmt.Sprintf("shard %d: %v\n", sh.Idx, groups)
	}
	return out
}

// TestHostileCountsAreDropped: what a shard takes from the wire is
// bounded per child. Group g has two signalers, a on a connection attached
// to the home shard and b on one behind a child shard; a has signaled
// epoch 0 and b has not, so the id-level reference calls epoch 0
// incomplete. Every message below, delivered straight to a shard's
// OnMessage, claims something its sender cannot: none may panic, change
// any state, send anything, or — the point — get epoch 0 released. Then b
// arrives and it does release.
func TestHostileCountsAreDropped(t *testing.T) {
	nw := transport.NewSimNet(transport.SimConfig{Latency: 1, Seed: 1})
	cfg := SimConfig(1, 0)
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const g = 0 // so that a message's zero Group is g
	ring := Ring{Shards: cfg.Shards}
	home := ring.Home(g)
	// Connection addresses by where the ring sends them for g: at the
	// home, and at a shard whose combine-tree parent is the home.
	var connA, connB, stranger transport.Addr
	kid := -1
	for a := transport.ConnAddrBase; connA == 0 || connB == 0 || stranger == 0; a++ {
		at := ring.Ingress(g, a)
		switch {
		case at == home && connA == 0:
			connA = a
		case at == home && stranger == 0:
			stranger = a
		case at != home && connB == 0 && parentShard(at, home, cfg.Shards, cfg.Radix) == home:
			connB, kid = a, at
		}
	}
	o := &oracleRun{t: t, nw: nw, ref: []*refGroup{newRefGroup()}}
	for _, a := range []transport.Addr{connA, connB} {
		c, err := Dial(nw, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.conns = append(o.conns, c)
	}
	a, b := o.conns[0], o.conns[1]
	joined := 0
	o.join(a, g, core.SignalWait, []uint64{1}, func(int64) { joined++ })
	o.join(b, g, core.SignalWait, []uint64{1}, func(int64) { joined++ })
	nw.Run(1000, func() bool { return joined == 2 })
	o.arrive(a, g, 0, 1)
	atHome := svc.Shards[home].groups[g]
	if _, ok := nw.Run(2000, func() bool { return atHome.ph.Net(0) == 1 }); !ok {
		t.Fatal("set-up: a's signal did not reach the home shard")
	}

	const huge = int64(1) << 62
	kidAddr := ShardAddr(kid)
	type msg = transport.Message
	for _, tc := range []struct {
		name     string
		at       int // shard it is delivered to
		m        msg
		rejected bool // counted in Shard.Rejected; otherwise ignored as stale
	}{
		{"arrive far past the window", home, msg{Kind: transport.KindArrive, From: connA, Epoch: huge, List: []uint64{1}}, true},
		{"arrive at the last epoch there is", home, msg{Kind: transport.KindArrive, From: connA, Epoch: math.MaxInt64, List: []uint64{1}}, true},
		{"arrive at the first epoch there is", home, msg{Kind: transport.KindArrive, From: connA, Epoch: math.MinInt64, List: []uint64{1}}, false},
		{"a's signal a second time", home, msg{Kind: transport.KindArrive, From: connA, Epoch: 0, List: []uint64{1}}, true},
		{"more signals than signalers", home, msg{Kind: transport.KindCombine, From: kidAddr, Epoch: 0, List: []uint64{5}}, true},
		{"a delta that overflows", home, msg{Kind: transport.KindCombine, From: kidAddr, Epoch: 0, List: []uint64{1 << 63}}, true},
		{"a delta of all ones", kid, msg{Kind: transport.KindArrive, From: connB, Epoch: 0, List: []uint64{math.MaxUint64}}, true},
		{"a good epoch ahead of a bad one", home, msg{Kind: transport.KindCombine, From: kidAddr, Epoch: 1, List: []uint64{1, 2}}, true},
		{"more epochs than one message may name", kid, msg{Kind: transport.KindArrive, From: connB, Epoch: phase.MaxAhead - 1, List: make([]uint64, phase.MaxAhead+1)}, true},
		{"arrive from a child that never joined", home, msg{Kind: transport.KindArrive, From: stranger, Epoch: 0, List: []uint64{1}}, true},
		{"combine from a shard that never joined", kid, msg{Kind: transport.KindCombine, From: ShardAddr(home), Epoch: 0, List: []uint64{1}}, true},
		{"arrive for a group nobody joined", home, msg{Kind: transport.KindArrive, From: connA, Group: 999, Epoch: 0, List: []uint64{1}}, true},
		{"retraction with no leaver", home, msg{Kind: transport.KindLeave, From: kidAddr, Epoch: 0, List: []uint64{0, 0, 1}}, true},
		{"retraction beyond the leavers", home, msg{Kind: transport.KindLeave, From: connA, Epoch: 0, List: []uint64{1, 0, 2}}, true},
		{"a leaver that keeps its signal", home, msg{Kind: transport.KindLeave, From: connA, Epoch: 0, List: []uint64{1, 0}}, true},
		{"more signalers than registered", kid, msg{Kind: transport.KindLeave, From: connB, Epoch: 0, List: []uint64{2, 0}}, true},
		{"a waiter that never was", home, msg{Kind: transport.KindLeave, From: kidAddr, Epoch: 0, List: []uint64{0, 1}}, true},
		{"leavers that overflow", home, msg{Kind: transport.KindLeave, From: kidAddr, Epoch: 0, List: []uint64{1 << 63, 1 << 63}}, true},
		{"leave far past the window", home, msg{Kind: transport.KindLeave, From: connA, Epoch: huge, List: []uint64{1, 0, 1}}, true},
		{"leave without its two counts", home, msg{Kind: transport.KindLeave, From: connA, Epoch: 0, List: []uint64{1}}, true},
		{"leave from a child that never joined", home, msg{Kind: transport.KindLeave, From: stranger, Epoch: 0, List: []uint64{1, 0}}, true},
		{"join for somebody else's connection", home, msg{Kind: transport.KindJoin, From: stranger, Client: uint64(connA)<<32 | 9, List: []uint64{1}}, true},
		{"join of more members than a table holds", home, msg{Kind: transport.KindJoin, From: connA, Client: uint64(connA)<<32 | 9, List: []uint64{1 << 40}}, true},
		{"join with a mode that is none of the three", home, msg{Kind: transport.KindJoin, From: connA, Mode: 7, Client: uint64(connA)<<32 | 9, List: []uint64{1}}, true},
	} {
		sh := svc.Shards[tc.at]
		before, sent, rejected := shardState(svc), nw.Sent, sh.Rejected
		sh.OnMessage(tc.m)
		if after := shardState(svc); after != before {
			t.Errorf("%s: state changed\n%s->\n%s", tc.name, before, after)
		}
		if nw.Sent != sent {
			t.Errorf("%s: the shard sent %d messages", tc.name, nw.Sent-sent)
		}
		if got := sh.Rejected - rejected; got != 0 != tc.rejected {
			t.Errorf("%s: Rejected moved by %d", tc.name, got)
		}
	}
	nw.Run(nw.Now()+500, func() bool { o.justified(); return false })

	o.arrive(b, g, 0, 1)
	if _, ok := nw.Run(nw.Now()+2000, func() bool { o.justified(); return a.Released(g) == 0 && b.Released(g) == 0 }); !ok {
		t.Fatalf("epoch 0 did not release once b arrived: a sees %d, b sees %d", a.Released(g), b.Released(g))
	}
}
