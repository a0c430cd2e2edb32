// Package barrierd is the epoch-coordination service: fuzzy-barrier
// groups as a network service. Clients join a group, arrive at epochs,
// and wait for releases; the service decides when each epoch is
// complete. The Arrive/Wait split is the paper's split-phase barrier
// stretched over a network — everything a client does between Arrive
// and the release is its barrier region.
//
// The coordinator is sharded: every group consistent-hashes to a home
// shard that owns its epoch state, connections spread their traffic over
// ingress shards, and arrivals combine up a tree of shards rooted at the
// group's home (the same fan-in discipline as cluster.TreeBarrier, with
// shards for tree nodes). Releases retrace the tree and fan out to
// connections.
//
// The barrier is a count, not a roll-call: the paper's processors each
// contribute one bit and the hardware sees only "all set". Identity stays
// at the edge — a Conn owns its members' ids and what each has signaled —
// and all that crosses the network is counts per (group, epoch). So
// client ids are scoped to their Conn (the service never sees one, and two
// connections may use the same id without meeting), and since nothing
// above the Conn can recognise a replayed count, what used to be
// idempotent by id at the home shard now rests on transport.Reliable
// delivering each message exactly once.
//
// The service speaks transport.Message over any transport.Network, so
// one coordinator codebase runs on the deterministic simulator (where
// its transcripts replay byte-identically), on in-process channels, and
// on real UDP sockets. All reliability — retransmission, dedup, ack
// batching — lives in transport.Reliable, the layer extracted from and
// verified by internal/cluster.
package barrierd

import (
	"fmt"

	"fuzzybarrier/internal/splitmix"
	"fuzzybarrier/internal/transport"
)

// DrainEpoch is the release epoch broadcast when a group's last
// signaler deregisters: the home's phase.Counter drains, so waiters at
// any epoch are released. Drain is terminal for the group. (How far ahead
// of the last release a signal may be banked, and so the epochs one
// message can name, is phase.MaxAhead: a Conn ignores arrivals past it
// and a shard drops messages past it.)
const DrainEpoch = int64(1) << 62

// Config tunes a shard set. Times are in the transport's clock units
// (ticks on SimNet, nanoseconds otherwise).
type Config struct {
	Shards int // coordinator shards (default 4)
	Radix  int // combine-tree fan-in (default 2)

	// FlushDelay batches arrival forwarding at non-home shards: signal
	// counts accumulate for this long, then go up as one combine.
	FlushDelay int64

	// Watchdog is the no-progress threshold: a home shard whose group
	// has signalers but whose epoch hasn't advanced for this long
	// produces a StuckReport. 0 disables.
	Watchdog int64

	reliable transport.ReliableConfig // set by SimConfig and RealtimeConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Radix < 2 {
		c.Radix = 2
	}
	return c
}

// SimConfig returns tuning for a SimNet with the given link latency
// and jitter (ticks).
func SimConfig(latency, jitter int64) Config {
	return Config{
		Shards: 4, Radix: 2,
		FlushDelay: 1,
		Watchdog:   200 * (latency + jitter + 1),
		reliable:   transport.SimReliable(latency, jitter),
	}
}

// RealtimeConfig returns tuning for the nanosecond-clock transports.
func RealtimeConfig() Config {
	const ms = int64(1e6)
	return Config{
		Shards: 4, Radix: 2,
		FlushDelay: ms / 5,
		Watchdog:   2000 * ms,
		reliable:   transport.RealtimeReliable(),
	}
}

// ShardAddr returns shard i's transport address (shards occupy the low
// address space; connections start at transport.ConnAddrBase).
func ShardAddr(i int) transport.Addr { return transport.Addr(i + 1) }

// Ring consistent-hashes groups onto shards by rendezvous (highest
// random weight) hashing: each group scores every shard and the top
// score wins, so shard-count changes move only the minimum of groups
// and no ring state needs distributing — every participant derives the
// same placement from the shard count alone.
type Ring struct {
	Shards int
}

// Home returns the shard owning g's membership and epoch state.
func (r Ring) Home(g uint32) int {
	return r.top(uint64(g) | 1<<40)
}

// Ingress returns the shard that connection conn sends g's traffic to:
// rendezvous over (group, conn), spreading a group's connections across
// shards so arrival fan-in is combined rather than concentrated.
func (r Ring) Ingress(g uint32, conn transport.Addr) int {
	return r.top(uint64(g)<<32 | uint64(conn))
}

func (r Ring) top(key uint64) int {
	best, bestScore := 0, uint64(0)
	for s := 0; s < r.Shards; s++ {
		if score := rdvmix(key, uint64(s)); s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// rdvmix is the rendezvous-hashing score: the splitmix64 finalizer over
// a XOR b·Gamma. Group placement depends on its values.
func rdvmix(a, b uint64) uint64 {
	return splitmix.Finalize(a ^ (b * splitmix.Gamma))
}

// parentShard returns the combine-tree parent of shard s for a group
// homed at home, or -1 when s is the root. The tree is the radix-k heap
// shape cluster.TreeBarrier uses, relabeled by rotation so any shard
// can be the root: position (s - home) mod S in heap order.
func parentShard(s, home, shards, radix int) int {
	pos := (s - home + shards) % shards
	if pos == 0 {
		return -1
	}
	return ((pos-1)/radix + home) % shards
}

// StuckReport describes a group making no progress: the home shard's
// watchdog emits one when signalers exist but the epoch hasn't advanced
// within the configured window. Why lists the concrete causes the shard
// can see; it names the children that are short, and Conn.Outstanding on
// a short connection names the members.
type StuckReport struct {
	Shard int
	Group uint32
	Epoch int64
	Since int64    // clock units since the last progress
	Why   []string // e.g. "waiting-arrivals: 2 of 3 signalers outstanding at epoch 4 (short: conn 65537 ×2)"
}

// String renders the report for logs.
func (sr StuckReport) String() string {
	s := fmt.Sprintf("stuck: shard=%d group=%d epoch=%d since=%d", sr.Shard, sr.Group, sr.Epoch, sr.Since)
	for _, w := range sr.Why {
		s += "\n  why: " + w
	}
	return s
}
