package cluster

import "fuzzybarrier/internal/trace"

// The lossy link layer: every transmission independently draws latency
// (base + uniform jitter), a drop outcome and a duplication outcome
// from the *sender's* seeded RNG stream. Because each copy draws its
// own latency, jitter alone produces reordering — a retransmission or a
// later message can overtake an earlier one — which is exactly why the
// protocols carry epoch tags and sequence numbers.
//
// Per-sender streams (rather than one global stream consumed in
// dispatch order) are what make the network shardable: every send
// happens while the sending node's own event is being dispatched, so
// the draws — like the per-transmission priority counter — touch only
// state owned by the sender's shard, and redistributing nodes across
// shards cannot change any draw.

// netSend hands one message to the network. Counting conventions: acks
// and retransmissions are counted by their callers (node.handle /
// outbox); drop/dup/delivery counters are bumped here per transmission.
func (x *exec) netSend(m Message) {
	cfg := &x.s.cfg.Net
	from := x.s.nodes[m.From]
	copies := 1
	if cfg.DupRate > 0 && from.netRNG.Float() < cfg.DupRate {
		copies = 2
		x.dups++
	}
	for c := 0; c < copies; c++ {
		from.txSeq++
		pri := deliverPri(m.From, from.txSeq)
		if cfg.DropRate > 0 && from.netRNG.Float() < cfg.DropRate {
			x.drops++
			if x.s.wantLog {
				x.logf(m.From, trace.EvDrop, "drop %v", m)
			}
			continue
		}
		delay := cfg.Latency
		if cfg.Jitter > 0 {
			delay += from.netRNG.IntN(cfg.Jitter + 1)
		}
		x.schedDeliver(m, x.now+delay, pri)
	}
}
