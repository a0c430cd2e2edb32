package check

import (
	"fmt"

	"fuzzybarrier/internal/cluster"
)

// mutation kinds.
const (
	mutRetagStale = iota
	mutDropRelease
)

// Mutation deliberately breaks a protocol machine. Negative tests run
// the checker over mutated protocols to prove that real protocol bugs
// produce counterexamples rather than silent passes.
type Mutation struct {
	Name string
	kind int
}

// MutationRetagStale models a protocol that skipped its epoch-tag
// staleness check: a stale delivery (epoch below the node's completed
// horizon — e.g. a duplicated or retransmitted message from a finished
// epoch) is re-tagged to the current horizon and processed as fresh.
// The expected counterexample is an early release: the stale arrival
// is double-counted toward an epoch the sender never arrived at.
func MutationRetagStale() *Mutation {
	return &Mutation{
		Name: "retag-stale",
		kind: mutRetagStale,
	}
}

// MutationDropRelease models a node that loses its wake-up: the
// highest-numbered node silently ignores release-wave and round
// messages, so it can never complete an epoch. The expected
// counterexample is a deadlock.
func MutationDropRelease() *Mutation {
	return &Mutation{
		Name: "drop-release",
		kind: mutDropRelease,
	}
}

// wrap wraps one node's protocol machine with the mutation.
func (mu *Mutation) wrap(p cluster.Proto, env cluster.ProtoEnv) cluster.Proto {
	return &mutProto{inner: p, env: env, mu: mu}
}

// mutProto decorates a Proto, perturbing Handle per the mutation kind.
// It is stateless beyond its inner machine, so cloning and state
// encoding delegate straight through.
type mutProto struct {
	inner cluster.Proto
	env   cluster.ProtoEnv
	mu    *Mutation
}

func (w *mutProto) Arrive(e int64) { w.inner.Arrive(e) }

func (w *mutProto) Handle(m cluster.Message) {
	switch w.mu.kind {
	case mutRetagStale:
		if r := w.env.ReleasedThrough(); int64(m.Epoch) < r {
			m.Epoch = int32(r)
		}
	case mutDropRelease:
		if w.env.NodeID() == w.env.Nodes()-1 &&
			(m.Kind == cluster.MsgRelease || m.Kind == cluster.MsgRound) {
			return
		}
	}
	w.inner.Handle(m)
}

func (w *mutProto) PendingLine() string {
	return fmt.Sprintf("%s [mutation:%s]", w.inner.PendingLine(), w.mu.Name)
}

func (w *mutProto) CloneFor(env cluster.ProtoEnv) cluster.Proto {
	return &mutProto{inner: w.inner.CloneFor(env), env: env, mu: w.mu}
}

func (w *mutProto) AppendState(buf []byte) []byte { return w.inner.AppendState(buf) }
