package cluster

import "fmt"

// treeProto: arrivals combine up a radix-k tree (node i's parent is
// (i-1)/k, its children k*i+1 .. k*i+k). A node forwards ARRIVE(e) to
// its parent once its own arrival and one from each child subtree are
// in; the root then starts a RELEASE(e) wave back down. No node handles
// more than k+1 peers per epoch — the message-passing analog of
// core.TreeBarrier removing the central hot spot.
//
// A tree node's arrival state is a tally with one slot per subtree
// (slot 0 = self, slot j = children[j-1]), kept after the upward forward
// so duplicate child ARRIVEs stay idempotent until the release wave
// passes.
type treeProto struct {
	env      ProtoEnv
	parent   int // -1 at the root
	children []int
	need     int // self + direct children
	tally
}

func (t *treeProto) init(env ProtoEnv) {
	k := env.TreeArity()
	id := env.NodeID()
	*t = treeProto{env: env, parent: -1}
	if id > 0 {
		t.parent = (id - 1) / k
	}
	for c := k*id + 1; c <= k*id+k && c < env.Nodes(); c++ {
		t.children = append(t.children, c)
	}
	t.need = 1 + len(t.children)
	t.tally = newTally(t.need)
}

// slotOf maps an arrival's sender to its stamp slot (the fan-in is
// TreeArity+1 wide, so the scan is constant and tiny).
func (t *treeProto) slotOf(from int) int {
	if from == t.env.NodeID() {
		return 0
	}
	for j, c := range t.children {
		if c == from {
			return j + 1
		}
	}
	panic(fmt.Sprintf("cluster: tree node %d got arrival from non-child %d", t.env.NodeID(), from))
}

func (t *treeProto) Arrive(e int64) { t.record(t.env.NodeID(), e) }

// record notes one subtree arrival; when the count fills, the subtree
// is complete: the root starts the release wave, everyone else combines
// upward.
func (t *treeProto) record(from int, e int64) {
	if t.add(t.slotOf(from), e, t.env.ReleasedThrough()) < t.need {
		return
	}
	if t.parent < 0 {
		t.down(e)
		return
	}
	t.env.Send(Message{Kind: MsgArrive, To: int32(t.parent), Epoch: int32(e)})
}

// down releases epoch e locally and forwards the release wave to the
// children; afterwards the releasedThrough guard classifies any late
// duplicate arrival for e as stale.
func (t *treeProto) down(e int64) {
	if e < t.env.ReleasedThrough() {
		return // duplicate release
	}
	for _, c := range t.children {
		t.env.Send(Message{Kind: MsgRelease, To: int32(c), Epoch: int32(e)})
	}
	if t.epoch == e {
		t.done()
	}
	t.env.Release(e)
}

func (t *treeProto) Handle(m Message) {
	switch m.Kind {
	case MsgArrive:
		t.record(int(m.From), int64(m.Epoch))
	case MsgRelease:
		t.down(int64(m.Epoch))
	}
}

func (t *treeProto) PendingLine() string {
	return fmt.Sprintf("tree(parent=%d, children=%d)", t.parent, len(t.children)) + t.pending(t.need)
}

func (t *treeProto) CloneFor(env ProtoEnv) Proto {
	return &treeProto{env: env, parent: t.parent, children: t.children, need: t.need, tally: t.clone()}
}
