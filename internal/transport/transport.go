// Package transport is the datagram fabric the barrierd service runs
// on: one coordinator codebase, three interchangeable ways to move its
// messages.
//
// The package splits the problem the way internal/cluster's simulator
// proved out:
//
//   - A Network is an *unreliable* datagram layer. It may drop,
//     duplicate, delay and reorder. Three implementations are provided:
//     SimNet (the deterministic seeded lossy network of
//     internal/cluster, in virtual time), ChanNet (in-process queues in
//     real time), and UDPNet (real sockets on loopback or beyond).
//   - Window is the *reliability* layer extracted from
//     internal/cluster/node.go's outbox: per-sender sequence numbers,
//     Jacobson/Karels RTT-estimated retransmission (stats.RTTEstimator)
//     with exponential backoff and Karn's rule, and the lazy-cancel
//     retransmit timer queue. internal/cluster now runs on this exact
//     code, so the simulator's exhaustively tested behaviour and the
//     server's are one codepath.
//   - Reliable composes a Window per peer with idempotent receive
//     (per-sender dedup, duplicates re-acked but never re-delivered)
//     and per-connection ack batching: acks are coalesced into one
//     KindAck message carrying many sequence numbers instead of one
//     datagram each.
//
// The execution contract every Network provides is what lets one
// protocol implementation run unmodified everywhere: all callbacks of
// one Endpoint — message delivery, After timers, injected Do closures —
// are serialized. Protocol state needs no locks; it is single-threaded
// per endpoint, exactly like a cluster.Proto under the simulator.
// Clock units are the transport's own (virtual ticks on SimNet,
// nanoseconds on ChanNet/UDPNet); reliability timeouts are configured
// in those units.
package transport

import "fuzzybarrier/internal/trace"

// Addr identifies one endpoint on a Network. Address assignment is by
// convention: barrierd gives shards small addresses and client
// connections addresses at ConnAddrBase and above.
type Addr uint32

// ConnAddrBase is the first address barrierd uses for client
// connections; everything below is a coordinator shard.
const ConnAddrBase Addr = 1 << 16

// Handler consumes one delivered datagram on the endpoint's serialized
// dispatch context.
type Handler func(m Message)

// Endpoint is one attached participant.
//
// Send is unreliable: the datagram may be dropped, duplicated, delayed
// or reordered (even ChanNet drops when a receiver's queue overflows —
// that is its loss model). After schedules fn on this endpoint's
// dispatch context; there is no cancel, so protocol code re-checks its
// deadline when fn fires (lazy cancel, as the cluster engines do). Do
// injects a closure into the dispatch context from any goroutine — it
// is the only Endpoint method safe to call from outside a callback.
type Endpoint interface {
	Addr() Addr
	// Now returns the endpoint's clock in transport units (virtual
	// ticks on SimNet, nanoseconds since Network start otherwise).
	Now() int64
	After(delay int64, fn func())
	Send(to Addr, m Message)
	Do(fn func())
	Close() error
}

// Network attaches endpoints. Implementations: SimNet, ChanNet, UDPNet.
type Network interface {
	Attach(a Addr, h Handler) (Endpoint, error)
	Close() error
}

// EventSink receives transport-level events (send, recv, retransmit,
// drop) for transcripts and traces. SimNet implements it natively (its
// append-only log is the byte-identical replay artifact).
type EventSink interface {
	Event(now int64, a Addr, kind trace.EventKind, msg string)
}
