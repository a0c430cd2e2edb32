package cluster

import "fmt"

// coordinatorID is the central protocol's coordinator node (also a
// participant, matching internal/baseline's central counter where the
// counter word lives on one node's memory).
const coordinatorID = 0

// centralProto: every node reliably sends ARRIVE(e) to the coordinator;
// once the coordinator has a distinct arrival from all n nodes it
// reliably sends RELEASE(e) to everyone else and releases itself. Cost
// is O(n) messages through one node per epoch — the message-passing
// analog of the hot spot of Section 1.
//
// The coordinator's arrival state is a tally with one slot per node.
type centralProto struct {
	env   ProtoEnv
	tally // coordinator only; empty elsewhere
}

func (c *centralProto) init(env ProtoEnv) {
	slots := 0
	if env.NodeID() == coordinatorID {
		slots = env.Nodes()
	}
	*c = centralProto{env: env, tally: newTally(slots)}
}

func (c *centralProto) Arrive(e int64) {
	if c.env.NodeID() == coordinatorID {
		c.record(coordinatorID, e)
		return
	}
	c.env.Send(Message{Kind: MsgArrive, To: coordinatorID, Epoch: int32(e)})
}

// record notes one distinct arrival at the coordinator and completes
// the epoch when the count is full.
func (c *centralProto) record(from int, e int64) {
	if c.add(from, e, c.env.ReleasedThrough()) < c.env.Nodes() {
		return
	}
	c.done()
	for i := 0; i < c.env.Nodes(); i++ {
		if i != coordinatorID {
			c.env.Send(Message{Kind: MsgRelease, To: int32(i), Epoch: int32(e)})
		}
	}
	c.env.Release(e)
}

func (c *centralProto) Handle(m Message) {
	switch m.Kind {
	case MsgArrive:
		c.record(int(m.From), int64(m.Epoch))
	case MsgRelease:
		c.env.Release(int64(m.Epoch)) // idempotent: stale duplicates are dropped there
	}
}

func (c *centralProto) PendingLine() string {
	if c.env.NodeID() != coordinatorID {
		return fmt.Sprintf("awaiting release for epoch %d", c.env.ReleasedThrough())
	}
	return "coordinator" + c.pending(c.env.Nodes())
}

func (c *centralProto) CloneFor(env ProtoEnv) Proto {
	return &centralProto{env: env, tally: c.clone()}
}
