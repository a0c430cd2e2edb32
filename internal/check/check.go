// Package check is an explicit-state model checker for the
// internal/cluster barrier protocols. Where the simulator samples one
// schedule per seed, the checker enumerates *every* reachable protocol
// state at small n under an adversarial network and proves two
// properties exhaustively:
//
//   - no-early-release: no node completes epoch e before all n nodes
//     have issued Arrive(e) (the barrier condition, checked at every
//     Release transition), and releases happen in epoch order.
//   - no-deadlock: every reachable non-final state has at least one
//     enabled transition; the only quiescent states are the ones where
//     all nodes completed all epochs.
//
// It runs the very same protocol state machines as the simulator —
// central.go / tree.go / dissem.go behind the cluster.Proto /
// cluster.ProtoEnv seam — so a property proved here is a property of
// the shipped code, not of a hand-translated model.
//
// # Adversary model
//
// The reliable-delivery layer (acks, RTT-estimated retransmission) is
// abstracted away: it guarantees each protocol send is delivered at
// least once and possibly several times, in any order. The checker
// models the network as a multiset of in-flight messages where each
// send may be delivered 1+MaxDup times:
//
//   - reorder: delivery picks any in-flight message, so all orders are
//     explored (a dropped-then-retransmitted copy is just a late
//     delivery and is covered by the same choice);
//   - duplication: a message may be delivered again after its first
//     delivery — up to MaxDup extra times — modeling both network
//     duplication and spurious retransmissions, including arbitrarily
//     stale ones;
//   - drop: an extra copy may instead be discarded, so paths where
//     duplication never happens are explored too. The mandatory final
//     copy cannot be discarded — reliability guarantees delivery — so
//     a "drop" of the last copy is exactly a late delivery.
//
// The fidelity of this abstraction to the concrete ack/retransmit
// machinery is pinned separately: the simulator's fault-injection
// property tests exercise the reliability layer itself, and
// TestOracleMatchesSimulator cross-checks the simulator against the
// closed-form release-time oracle in oracle.go.
//
// # Search
//
// States are canonically encoded (per-node protocol state + epoch
// horizons + the sorted in-flight multiset) and deduplicated in a
// visited set; the search is a work-stack DFS with state and depth
// budgets. Each discovered state remembers its discovery edge, so a
// violation yields a full trace; the trace is then re-derived with a
// breadth-first pass bounded by the DFS result, so the printed
// counterexample is minimal.
package check

import (
	"fmt"
	"sort"
	"strings"

	"fuzzybarrier/internal/cluster"
)

// Defaults for the search budgets.
const (
	defaultMaxStates = 4 << 20
	defaultMaxDepth  = 1 << 20
	defaultMaxDup    = 1
)

// Config describes one exhaustive verification run.
type Config struct {
	Protocol  string // one of cluster.Protocols()
	Nodes     int    // cluster size (the state space is exponential; keep <= 4)
	Epochs    int    // barrier episodes to verify through
	TreeArity int    // combining-tree fanout, default 2

	// MaxDup is how many extra adversarial deliveries each protocol
	// send may receive beyond the mandatory one (default 1). Set a
	// negative value to disable duplication and check pure reordering.
	MaxDup int

	// MaxStates and MaxDepth bound the search; exceeding either aborts
	// with an error (the run is then neither verified nor refuted).
	MaxStates int
	MaxDepth  int

	// Mutation, when non-nil, wraps every node's protocol machine with
	// a deliberately broken variant. Negative tests use this to prove
	// the checker actually catches protocol bugs.
	Mutation *Mutation
}

func (cfg Config) withDefaults() (Config, error) {
	known := false
	for _, p := range cluster.Protocols() {
		if p == cfg.Protocol {
			known = true
		}
	}
	if !known {
		return cfg, fmt.Errorf("check: unknown protocol %q", cfg.Protocol)
	}
	if cfg.Nodes < 1 {
		return cfg, fmt.Errorf("check: need >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.Epochs < 1 {
		return cfg, fmt.Errorf("check: need >= 1 epoch, got %d", cfg.Epochs)
	}
	if cfg.TreeArity < 2 {
		cfg.TreeArity = 2
	}
	switch {
	case cfg.MaxDup < 0:
		cfg.MaxDup = 0 // negative: duplication explicitly disabled
	case cfg.MaxDup == 0:
		cfg.MaxDup = defaultMaxDup
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = defaultMaxStates
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = defaultMaxDepth
	}
	return cfg, nil
}

// Violation describes one property failure, with a minimal
// counterexample trace from the initial state.
type Violation struct {
	Property string   // "early-release", "release-order", "deadlock" or "panic"
	detail   string   // what went wrong at the final transition
	Trace    []string // one action per line, in execution order
}

// String renders the violation with its trace, one action per line.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", v.Property, v.detail)
	fmt.Fprintf(&b, "counterexample (%d steps):\n", len(v.Trace))
	for i, step := range v.Trace {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, step)
	}
	return b.String()
}

// Result summarizes one verification run.
type Result struct {
	Config      Config
	States      int   // distinct states reached
	Transitions int64 // transitions applied
	Depth       int   // deepest path explored

	// Violation is nil when both properties hold over the whole
	// reachable state space.
	Violation *Violation
}

// String renders a one-line summary.
func (r *Result) String() string {
	verdict := "verified: no-early-release, no-deadlock"
	if r.Violation != nil {
		verdict = "VIOLATION (" + r.Violation.Property + ")"
	}
	return fmt.Sprintf("%s n=%d epochs=%d dup<=%d: %d states, %d transitions, depth %d — %s",
		r.Config.Protocol, r.Config.Nodes, r.Config.Epochs, r.Config.MaxDup,
		r.States, r.Transitions, r.Depth, verdict)
}

// Run exhaustively explores the protocol's reachable state space under
// the adversary and returns the verification result. The error is
// non-nil only for invalid configs or exhausted budgets — a property
// violation is reported in Result.Violation, not as an error.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := newChecker(cfg)
	res, err := c.search(searchDFS)
	if err != nil || res.Violation == nil {
		return res, err
	}
	// A violation found by DFS can carry a long discovery path; re-run
	// breadth-first (shortest discovery order) to print a minimal
	// counterexample. The BFS pass shares the budgets; if it blows
	// them, keep the DFS trace.
	short, serr := newChecker(cfg).search(searchBFS)
	if serr == nil && short.Violation != nil && len(short.Violation.Trace) < len(res.Violation.Trace) {
		res.Violation = short.Violation
	}
	return res, nil
}

// action ops.
const (
	opArrive  = uint8(iota) // a node issues Arrive for its next epoch
	opDeliver               // the network delivers one in-flight copy
	opDup                   // the network delivers an extra (duplicate) copy
	opDrop                  // the network discards an extra copy undelivered
)

// action is one transition of the model: a local arrival or an
// adversary move on one in-flight message.
type action struct {
	op   uint8
	node int32           // opArrive: which node
	m    cluster.Message // opDeliver/opDup/opDrop: which message
}

func (a action) String() string {
	switch a.op {
	case opArrive:
		return fmt.Sprintf("node %d: Arrive(e=%d)", a.node, a.m.Epoch)
	case opDeliver:
		return fmt.Sprintf("net: deliver %s", renderMsg(a.m))
	case opDup:
		return fmt.Sprintf("net: deliver duplicate %s", renderMsg(a.m))
	case opDrop:
		return fmt.Sprintf("net: drop extra copy of %s", renderMsg(a.m))
	}
	return fmt.Sprintf("action(%d)", a.op)
}

// renderMsg renders a message without the Seq field (the checker
// abstracts sequence numbers away).
func renderMsg(m cluster.Message) string {
	if m.Kind == cluster.MsgRound {
		return fmt.Sprintf("%s e=%d r=%d %d->%d", m.Kind, m.Epoch, m.Round, m.From, m.To)
	}
	return fmt.Sprintf("%s e=%d %d->%d", m.Kind, m.Epoch, m.From, m.To)
}

// flight is one in-flight protocol send: the mandatory delivery plus
// any remaining adversarial duplicates.
type flight struct {
	m         cluster.Message
	delivered bool  // the mandatory copy has been consumed
	extra     uint8 // adversarial duplicate deliveries still available
}

func (f flight) gone() bool { return f.delivered && f.extra == 0 }

// nodeState is one node of the model: the protocol machine plus the
// abstracted episode position. arrived is the next epoch the node will
// Arrive at; released is the node's completed-epoch horizon. The fuzzy
// region and Wait are abstracted to their synchronization skeleton:
// Arrive(e) is enabled exactly when the node has completed every epoch
// < e (released == e), and "exiting epoch e" is the release itself —
// which is where the barrier condition is checked.
type nodeState struct {
	arrived  int64
	released int64
	proto    cluster.Proto
}

// state is one vertex of the explored graph.
type state struct {
	nodes []nodeState
	net   []flight
}

type discEntry struct {
	parent int32
	act    action
}

type workItem struct {
	st    *state
	id    int32
	depth int
}

// Search strategies: DFS (work stack, low memory, used for the
// exhaustive pass) and BFS (FIFO, shortest discovery paths, used to
// minimize counterexamples).
const (
	searchDFS = iota
	searchBFS
)

type checker struct {
	cfg  Config
	envs []*env

	// cur is the state being mutated by the transition in flight; the
	// persistent per-node envs indirect through it so cloned protocol
	// machines never need rebinding.
	cur  *state
	fail *Violation // set by env.Release on a property breach

	visited map[string]int32
	disc    []discEntry
}

func newChecker(cfg Config) *checker {
	c := &checker{cfg: cfg, visited: make(map[string]int32)}
	c.envs = make([]*env, cfg.Nodes)
	for i := range c.envs {
		c.envs[i] = &env{c: c, id: i}
	}
	return c
}

// env adapts the checker to cluster.ProtoEnv for one node id.
type env struct {
	c  *checker
	id int
}

func (e *env) NodeID() int    { return e.id }
func (e *env) Nodes() int     { return e.c.cfg.Nodes }
func (e *env) TreeArity() int { return e.c.cfg.TreeArity }

func (e *env) ReleasedThrough() int64 { return e.c.cur.nodes[e.id].released }

func (e *env) Send(m cluster.Message) {
	m.From = int32(e.id)
	if m.To < 0 || int(m.To) >= e.c.cfg.Nodes {
		panic(fmt.Sprintf("send to out-of-range node %d", m.To))
	}
	e.c.cur.net = append(e.c.cur.net, flight{m: m, extra: uint8(e.c.cfg.MaxDup)})
}

// Release is where both release properties are checked, on every
// release of every explored path.
func (e *env) Release(epoch int64) {
	nd := &e.c.cur.nodes[e.id]
	if epoch < nd.released {
		return // duplicate release of a completed epoch: dropped, like node.release
	}
	if epoch > nd.released {
		e.c.fail = &Violation{
			Property: "release-order",
			detail: fmt.Sprintf("node %d released epoch %d before completing epoch %d",
				e.id, epoch, nd.released),
		}
		return
	}
	for j := range e.c.cur.nodes {
		if e.c.cur.nodes[j].arrived <= epoch {
			e.c.fail = &Violation{
				Property: "early-release",
				detail: fmt.Sprintf("node %d released epoch %d but node %d has not arrived (arrived through %d of %d nodes required)",
					e.id, epoch, j, e.c.cur.nodes[j].arrived, e.c.cfg.Nodes),
			}
			return
		}
	}
	nd.released = epoch + 1
}

// initial builds the model's start state: every node at epoch 0, empty
// network.
func (c *checker) initial() (*state, error) {
	st := &state{nodes: make([]nodeState, c.cfg.Nodes)}
	for i := range st.nodes {
		p, err := cluster.NewProto(c.cfg.Protocol, c.envs[i])
		if err != nil {
			return nil, err
		}
		if c.cfg.Mutation != nil {
			p = c.cfg.Mutation.wrap(p, c.envs[i])
		}
		st.nodes[i].proto = p
	}
	return st, nil
}

// clone deep-copies a state; protocol machines are forked through
// CloneFor so the copy shares nothing with the original.
func (c *checker) clone(s *state) *state {
	ns := &state{
		nodes: make([]nodeState, len(s.nodes)),
		net:   append([]flight(nil), s.net...),
	}
	for i := range s.nodes {
		ns.nodes[i] = s.nodes[i]
		ns.nodes[i].proto = s.nodes[i].proto.CloneFor(c.envs[i])
	}
	return ns
}

// allDone reports quiescence: every node completed every epoch. Any
// messages still in flight are provably stale (their epoch is below
// every node's horizon), so final states are not expanded further.
func (c *checker) allDone(s *state) bool {
	for i := range s.nodes {
		if s.nodes[i].released < int64(c.cfg.Epochs) {
			return false
		}
	}
	return true
}

// enabled appends every transition enabled in s.
func (c *checker) enabled(s *state, buf []action) []action {
	for i := range s.nodes {
		nd := &s.nodes[i]
		if nd.arrived == nd.released && nd.arrived < int64(c.cfg.Epochs) {
			buf = append(buf, action{op: opArrive, node: int32(i), m: cluster.Message{Epoch: int32(nd.arrived)}})
		}
	}
	for j := range s.net {
		f := &s.net[j]
		if !f.delivered {
			buf = append(buf, action{op: opDeliver, m: f.m})
		} else if f.extra > 0 {
			// Duplicates become available once the mandatory copy is
			// consumed: a copy overtaking the original is the same
			// delivery order with the labels swapped, so restricting
			// duplicates to follow the original loses no reachable
			// protocol state and halves the interleaving count.
			buf = append(buf, action{op: opDup, m: f.m}, action{op: opDrop, m: f.m})
		}
	}
	return buf
}

// findFlight locates the in-flight entry for action a (by message
// value and the op's delivery class).
func findFlight(s *state, a action) int {
	for j := range s.net {
		f := &s.net[j]
		if f.m != a.m {
			continue
		}
		if a.op == opDeliver && !f.delivered {
			return j
		}
		if (a.op == opDup || a.op == opDrop) && f.delivered && f.extra > 0 {
			return j
		}
	}
	return -1
}

// apply executes action a on a fresh copy of s, returning the successor
// and any property violation the transition triggered. Panics inside
// the protocol machines (possible under mutations) are converted into
// violations rather than crashing the search.
func (c *checker) apply(s *state, a action) (ns *state, viol *Violation) {
	ns = c.clone(s)
	c.cur = ns
	c.fail = nil
	defer func() {
		if r := recover(); r != nil {
			viol = &Violation{Property: "panic", detail: fmt.Sprint(r)}
		}
		c.cur = nil
	}()
	switch a.op {
	case opArrive:
		nd := &ns.nodes[a.node]
		e := nd.arrived
		nd.arrived = e + 1
		nd.proto.Arrive(e)
	case opDeliver, opDup, opDrop:
		j := findFlight(ns, a)
		if j < 0 {
			panic(fmt.Sprintf("check: no in-flight entry for %s", a))
		}
		f := &ns.net[j]
		if a.op == opDeliver {
			f.delivered = true
		} else {
			f.extra--
		}
		deliver := a.op != opDrop
		if f.gone() {
			ns.net = append(ns.net[:j], ns.net[j+1:]...)
		}
		if deliver {
			ns.nodes[a.m.To].proto.Handle(a.m)
		}
	}
	if c.fail != nil {
		return ns, c.fail
	}
	return ns, nil
}

// key canonically encodes s. In-flight entries are order-normalized so
// states differing only in send order hash identically.
func (c *checker) key(s *state, buf []byte) []byte {
	for i := range s.nodes {
		nd := &s.nodes[i]
		buf = appendKey64(buf, nd.arrived)
		buf = appendKey64(buf, nd.released)
		buf = nd.proto.AppendState(buf)
	}
	net := append(make([]flight, 0, len(s.net)), s.net...)
	sort.Slice(net, func(a, b int) bool { return flightLess(net[a], net[b]) })
	for _, f := range net {
		buf = append(buf, byte(f.m.Kind), byte(f.m.From), byte(f.m.To), byte(f.m.Round))
		buf = appendKey64(buf, int64(f.m.Epoch))
		d := byte(0)
		if f.delivered {
			d = 1
		}
		buf = append(buf, d, f.extra)
	}
	return buf
}

func appendKey64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func flightLess(a, b flight) bool {
	if a.m.Kind != b.m.Kind {
		return a.m.Kind < b.m.Kind
	}
	if a.m.From != b.m.From {
		return a.m.From < b.m.From
	}
	if a.m.To != b.m.To {
		return a.m.To < b.m.To
	}
	if a.m.Epoch != b.m.Epoch {
		return a.m.Epoch < b.m.Epoch
	}
	if a.m.Round != b.m.Round {
		return a.m.Round < b.m.Round
	}
	if a.delivered != b.delivered {
		return !a.delivered
	}
	return a.extra < b.extra
}

// trace reconstructs the action path from the initial state to state
// id by walking discovery edges.
func (c *checker) trace(id int32, last *action) []string {
	var acts []action
	if last != nil {
		acts = append(acts, *last)
	}
	for id > 0 {
		e := c.disc[id]
		acts = append(acts, e.act)
		id = e.parent
	}
	out := make([]string, len(acts))
	for i := range acts {
		out[len(acts)-1-i] = acts[i].String()
	}
	return out
}

// search runs the exploration to exhaustion, a violation, or a blown
// budget.
func (c *checker) search(strategy int) (*Result, error) {
	res := &Result{Config: c.cfg}
	init, err := c.initial()
	if err != nil {
		return nil, err
	}
	c.visited[string(c.key(init, nil))] = 0
	c.disc = append(c.disc, discEntry{parent: -1})
	work := []workItem{{st: init, id: 0, depth: 0}}
	res.States = 1

	var actbuf []action
	var keybuf []byte
	for len(work) > 0 {
		var it workItem
		if strategy == searchDFS {
			it = work[len(work)-1]
			work = work[:len(work)-1]
		} else {
			it = work[0]
			work = work[1:]
		}
		if it.depth > res.Depth {
			res.Depth = it.depth
		}
		if c.allDone(it.st) {
			continue // final: leftover in-flight messages are stale no-ops
		}
		actbuf = c.enabled(it.st, actbuf[:0])
		if len(actbuf) == 0 {
			c.cur = it.st // PendingLine reads through the env, which indirects via cur
			detail := fmt.Sprintf("no enabled transition; node states: %s", describeNodes(it.st))
			c.cur = nil
			res.Violation = &Violation{
				Property: "deadlock",
				detail:   detail,
				Trace:    c.trace(it.id, nil),
			}
			return res, nil
		}
		if it.depth+1 > c.cfg.MaxDepth {
			return res, fmt.Errorf("check: depth budget %d exhausted (%d states so far)", c.cfg.MaxDepth, res.States)
		}
		for _, a := range actbuf {
			res.Transitions++
			ns, viol := c.apply(it.st, a)
			if viol != nil {
				viol.Trace = c.trace(it.id, &a)
				res.Violation = viol
				return res, nil
			}
			keybuf = c.key(ns, keybuf[:0])
			if _, seen := c.visited[string(keybuf)]; seen {
				continue
			}
			if res.States >= c.cfg.MaxStates {
				return res, fmt.Errorf("check: state budget %d exhausted", c.cfg.MaxStates)
			}
			id := int32(len(c.disc))
			c.visited[string(keybuf)] = id
			c.disc = append(c.disc, discEntry{parent: it.id, act: a})
			res.States++
			work = append(work, workItem{st: ns, id: id, depth: it.depth + 1})
		}
	}
	return res, nil
}

// describeNodes renders each node's position for deadlock reports.
func describeNodes(s *state) string {
	var b strings.Builder
	for i := range s.nodes {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "node %d arrived=%d released=%d [%s]",
			i, s.nodes[i].arrived, s.nodes[i].released, s.nodes[i].proto.PendingLine())
	}
	return b.String()
}
