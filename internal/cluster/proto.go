package cluster

import "fmt"

// This file is the seam between the protocol state machines
// (central.go, tree.go, dissem.go) and their host. The protocols know
// nothing about event loops, outboxes or retransmission: they observe
// arrivals and deliveries through Arrive/Handle and act on the world
// exclusively through a ProtoEnv. Two hosts exist:
//
//   - *node (node.go): the discrete-event simulator. Send goes through
//     the reliable outbox, Release drives the node's episode machine.
//   - internal/check: the explicit-state model checker, which runs the
//     same protocol code under an adversarial scheduler and verifies
//     no-early-release and no-deadlock exhaustively.
//
// Because the checker explores a state graph rather than a timeline, a
// Proto must also be cloneable (CloneFor) and canonically encodable
// (AppendState) so reached states can be forked and deduplicated.

// ProtoEnv is everything a protocol state machine may observe or do.
type ProtoEnv interface {
	// NodeID is the identity of the participant this machine runs on.
	NodeID() int
	// Nodes is the cluster size.
	Nodes() int
	// TreeArity is the combining-tree fanout (tree protocol only).
	TreeArity() int
	// ReleasedThrough returns the node's completed-epoch horizon:
	// epochs < ReleasedThrough() are done locally. Protocols use it to
	// classify stale retransmissions.
	ReleasedThrough() int64
	// Send transmits one protocol message reliably. The protocol fills
	// Kind/To/Epoch/Round; the host owns From and Seq.
	Send(m Message)
	// Release marks epoch e complete at this node. Hosts must tolerate
	// duplicate releases of already-completed epochs (drop them) and
	// treat out-of-order releases as protocol bugs.
	Release(e int64)
}

// Proto is one per-node protocol state machine.
type Proto interface {
	// Arrive is invoked when the local node issues Arrive(e).
	Arrive(e int64)
	// Handle receives every delivered non-ack message.
	Handle(m Message)
	// PendingLine renders the in-flight epoch state for stuck reports.
	PendingLine() string
	// CloneFor returns a deep copy of the machine bound to env, used by
	// the model checker to fork a reached state.
	CloneFor(env ProtoEnv) Proto
	// AppendState appends a canonical encoding of the machine's state
	// to buf: equal states (same pending arrivals, same epoch horizon)
	// must encode identically, so the checker can deduplicate.
	AppendState(buf []byte) []byte
}

// NewProto builds the named protocol's per-node state machine over env.
// The name must be one of Protocols(); the Sim validates it in
// withDefaults, and the checker validates it in its own config.
func NewProto(protocol string, env ProtoEnv) (Proto, error) {
	build, err := newProtos(protocol, 1)
	if err != nil {
		return nil, err
	}
	return build(0, env), nil
}

// newProtos allocates n of the named protocol's machines in one slice
// and returns the function that builds machine i over env in place. A
// Sim carves its nodes' machines this way, in node order, so the
// dispatch loop finds neighbouring nodes' machines in neighbouring
// memory.
func newProtos(protocol string, n int) (func(i int, env ProtoEnv) Proto, error) {
	switch protocol {
	case "central":
		return carve[centralProto](n), nil
	case "tree":
		return carve[treeProto](n), nil
	case "dissemination":
		return carve[dissProto](n), nil
	}
	return nil, fmt.Errorf("cluster: unregistered protocol %q", protocol)
}

// carve is newProtos for one machine type P.
func carve[P any, PP interface {
	*P
	Proto
	init(env ProtoEnv)
}](n int) func(i int, env ProtoEnv) Proto {
	slab := make([]P, n)
	return func(i int, env ProtoEnv) Proto {
		p := PP(&slab[i])
		p.init(env)
		return p
	}
}

// appendState64 appends one int64 state word in a fixed-width canonical
// encoding (little-endian two's complement).
func appendState64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}
