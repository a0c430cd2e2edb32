package barrierd

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/phase"
	"fuzzybarrier/internal/transport"
)

// Conn is one client connection multiplexing any number of virtual
// clients over a single transport endpoint — the load generator runs
// hundreds of thousands of clients per Conn. It is where identity lives:
// per group a table of its members' ids and what each has signaled. What
// it sends is counts, one datagram per JoinBatch, ArriveBatch or
// LeaveBatch whatever the batch size; releases arrive once per (conn,
// group) and fan out to every waiter locally.
//
// The callback API (JoinBatch's done, WhenReleased) is transport
// agnostic: callbacks run on the endpoint's dispatch context, so on
// SimNet a Conn is driven deterministically from inside Run. The
// blocking AwaitJoined is for the real-time transports only.
type Conn struct {
	ep   transport.Endpoint
	r    *transport.Reliable
	ring Ring

	// mu guards groups, batches and each group's release and join
	// bookkeeping. onMessage takes it for every release of every group,
	// so no batch walk runs under it: a group's members have their own.
	// A lookup of a group that exists with an id below
	// transport.DenseBound does not take it: it reads dense.
	mu      sync.Mutex
	groups  transport.Table[uint32, connGroup]
	batches uint32 // JoinBatch calls so far; numbers the join tokens

	// dense is the groups with ids below transport.DenseBound, by id,
	// for lookups without mu: one atomic load. Only group creation
	// writes it, under mu, and never an element a published slice
	// shows: a group past the length goes into spare capacity, grown as
	// append grows it, before the longer slice is published, and one
	// that fills a hole below the length gets a copy.
	dense atomic.Pointer[[]*connGroup]

	// sendMu guards sends, the protocol sends waiting for the dispatch
	// context. send queues one and injects one Do of sendOne, which
	// sends the oldest: one Do per message, as a closure per message
	// would be, with nothing to allocate.
	sendMu  sync.Mutex
	sends   sendQueue
	sendOne func() // bound once, in Dial
}

// queuedSend is one protocol send waiting for the dispatch context.
type queuedSend struct {
	to transport.Addr
	m  transport.Message
}

// sendQueue is a FIFO of queued sends in a power-of-two ring that grows
// only past its high-water mark.
type sendQueue struct {
	ring []queuedSend
	head int // the oldest
	n    int // how many are queued
}

func (q *sendQueue) push(s queuedSend) {
	if q.n == len(q.ring) {
		grown := make([]queuedSend, max(8, 2*len(q.ring)))
		for i := range q.n {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = s
	q.n++
}

func (q *sendQueue) pop() queuedSend {
	s := q.ring[q.head]
	q.ring[q.head] = queuedSend{} // drop the list's reference
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return s
}

type connGroup struct {
	// released is written under Conn.mu. The batch walks read it under
	// members.mu alone; a JoinOK raises it before confirming its batch
	// there, so a walk never sees a member without the release it implies.
	released atomic.Int64

	joinPending int // JoinBatch calls awaiting their JoinOK
	joinEpoch   int64
	joinDone    []func(epoch int64)

	watchers []watcher

	members memberTable
}

type watcher struct {
	epoch int64
	fn    func(released int64)
}

// memberTable is one group's members on this connection, dense and in
// registration order, so a batch that names them in that order is checked
// by sequential compare; anything else goes through index. None of it
// holds a pointer, so the GC never scans a million members. Its methods
// are the table alone: the Conn holds mu around them and does the sends.
//
// What each member has signaled has two forms. While every member agrees —
// one batch joined, its JoinOK in, each arrival naming the whole batch —
// signaled is nil and the one value is shared: the paper's "all set"
// rather than a roll-call, so an in-order full-batch arrive checks the ids
// and writes one word, and a full-batch leave takes them all at once. The
// first call that would set members apart gives each its own value, which
// it keeps until the table empties.
//
// The index is built by the first lookup that needs it (a walk that
// leaves registration order, a partial leave, a join into a non-empty
// table), so a whole batch joins, arrives and leaves with none and a
// member costs its id.
type memberTable struct {
	mu  sync.Mutex
	ids []uint64
	// signaled[i] counts the epochs member i has signaled: those below it
	// are covered. A member joins owing the epoch its JoinOK names (the
	// open epoch phase.Counter.Join returns), a wait-only one owing none;
	// until then signaled[i] is minus its batch's number and arrive and
	// leave pass the member over. nil while every member's value is shared.
	signaled []int64
	shared   int64
	index    map[uint64]int32 // id -> slot; nil until a lookup needs it

	// last is the list arrive returned last. A list handed to Send is
	// never written again, so while the next list is equal — the same
	// cohort arriving every epoch — arrive returns last again instead of
	// allocating. scratch is where a list is counted before that check.
	last, scratch []uint64
}

// waitOnly is a wait-only member's signaled: it never owes an epoch.
const waitOnly = math.MaxInt64

// at returns member i's signaled.
func (t *memberTable) at(i int32) int64 {
	if t.signaled == nil {
		return t.shared
	}
	return t.signaled[i]
}

// diverge gives every member its own signaled, equal to shared, with room
// for extra more.
func (t *memberTable) diverge(extra int) {
	if t.signaled == nil {
		t.signaled = make([]int64, len(t.ids), len(t.ids)+extra)
		for i := range t.signaled {
			t.signaled[i] = t.shared
		}
	}
}

// whole reports whether the members agree and ids names every one of them
// in registration order.
func (t *memberTable) whole(ids []uint64) bool {
	return t.signaled == nil && len(ids) > 0 && sameIDs(ids, t.ids)
}

// sameIDs is slices.Equal for id lists, compared 64 ids at a time as
// arrays so that the runtime's vectorized memequal does the work instead
// of slices.Equal's scalar loop. Each conn re-checks every member of a
// group on every arrive: a CPU profile of 1,000,000 clients in 4 groups
// put 76% of all samples in slices.Equal here.
func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for len(a) >= 64 {
		if *(*[64]uint64)(a) != *(*[64]uint64)(b) {
			return false
		}
		a, b = a[64:], b[64:]
	}
	return slices.Equal(a, b)
}

// slot finds id, trying hint — the slot after the previous hit — first.
func (t *memberTable) slot(id uint64, hint int32) (int32, bool) {
	if int(hint) < len(t.ids) && t.ids[hint] == id {
		return hint, true
	}
	t.indexed(0)
	i, ok := t.index[id]
	return i, ok
}

// indexed builds the index from ids if there is none, with room for extra
// more.
func (t *memberTable) indexed(extra int) {
	if t.index == nil {
		t.index = make(map[uint64]int32, len(t.ids)+extra)
		for i, id := range t.ids {
			t.index[id] = int32(i)
		}
	}
}

// remove deletes slot i by moving the last member into it, keeping the
// index if there is one. Members that agree still agree.
func (t *memberTable) remove(i int32) {
	last := int32(len(t.ids) - 1)
	if t.index != nil {
		delete(t.index, t.ids[i])
		if i != last {
			t.index[t.ids[last]] = i
		}
	}
	t.ids[i] = t.ids[last]
	t.ids = t.ids[:last]
	if t.signaled != nil {
		t.signaled[i] = t.signaled[last]
		t.signaled = t.signaled[:last]
	}
}

// join registers the ids that are not members yet, parked under batch,
// and returns how many that was. A batch into an empty table is one
// shared value, and if it repeats no id, a copy of ids and no index.
func (t *memberTable) join(batch uint32, ids []uint64) int {
	was := len(t.ids)
	if was == 0 {
		t.signaled, t.shared, t.index = nil, -int64(batch), nil
		if distinct(ids) {
			t.ids = append(t.ids[:0], ids...)
			return len(ids)
		}
	} else {
		t.diverge(len(ids))
		t.signaled = slices.Grow(t.signaled, len(ids)) // no-op if diverge just built it
	}
	t.indexed(len(ids))
	t.ids = slices.Grow(t.ids, len(ids))
	for _, id := range ids {
		if _, dup := t.index[id]; !dup {
			t.index[id] = int32(len(t.ids))
			t.ids = append(t.ids, id)
			if t.signaled != nil {
				t.signaled = append(t.signaled, -int64(batch))
			}
		}
	}
	return len(t.ids) - was
}

// unpark confirms batch's members: from now on they owe epoch owes
// (waitOnly: none).
func (t *memberTable) unpark(batch uint32, owes int64) {
	parked := -int64(batch)
	if t.signaled == nil {
		if t.shared == parked {
			t.shared = owes
		}
		return
	}
	for i, s := range t.signaled {
		if s == parked {
			t.signaled[i] = owes
		}
	}
}

// arrive signals every epoch up to e that a member in ids has not, and
// returns the new signals as an arrive's list: entry j counts those for
// epoch e-j. Ids that are not confirmed signaling members or have
// signaled e are passed over, so a replayed batch counts once. On a table
// that agrees, a batch naming every member in registration order is one
// compare: all n members are shared epochs behind e, so each epoch from
// shared to e gains n.
func (t *memberTable) arrive(e int64, ids []uint64) []uint64 {
	added := t.scratch[:0]
	if t.whole(ids) {
		if t.shared < 0 || t.shared > e { // parked, wait-only or signaled e
			return nil
		}
		for range e - t.shared + 1 {
			added = append(added, uint64(len(ids)))
		}
		t.shared = e + 1
	} else {
		t.diverge(0)
		hint := int32(0) // in the walk, added[j] counts members found j epochs behind e
		for _, id := range ids {
			if i, ok := t.slot(id, hint); ok {
				hint = i + 1
				if s := t.signaled[i]; s >= 0 && s <= e {
					t.signaled[i] = e + 1
					added = tally(added, e-s)
				}
			}
		}
		for j := len(added) - 2; j >= 0; j-- {
			added[j] += added[j+1] // epoch e-j is signaled by all at least j behind
		}
	}
	t.scratch = added
	if len(added) == 0 {
		return nil
	}
	if !slices.Equal(added, t.last) {
		t.last = slices.Clip(append([]uint64(nil), added...))
	}
	return t.last
}

// leave deregisters the confirmed members in ids and returns a leave's
// list: how many signaling and how many wait-only members went, then the
// signals they had banked for epochs past released, highest epoch first.
// It is nil if none went: unknown and unconfirmed ids are passed over. On
// a table that agrees, a batch naming every member in registration order
// takes them all at once: n of the shared mode go, each banked epoch loses
// n signals, and the table empties.
func (t *memberTable) leave(released int64, ids []uint64) []uint64 {
	var gone census
	banked := t.scratch[:0] // oldest epoch first
	if t.whole(ids) {
		n, s := len(ids), t.shared
		switch {
		case s < 0: // parked
			return nil
		case s == waitOnly:
			gone.waiters = int64(n)
		default:
			gone.signalers = int64(n)
			for k := released + 1; k < s; k++ {
				banked = append(banked, uint64(n))
			}
		}
		t.ids, t.index = t.ids[:0], nil
	} else {
		hint := int32(0)
		for _, id := range ids {
			i, ok := t.slot(id, hint)
			if !ok || t.at(i) < 0 {
				continue
			}
			hint = i + 1 // the next in registration order has not moved
			if s := t.at(i); s == waitOnly {
				gone.waiters++
			} else {
				gone.signalers++
				for k := released + 1; k < s; k++ {
					banked = tally(banked, k-released-1)
				}
			}
			t.remove(i)
		}
	}
	t.scratch = banked
	if gone.signalers+gone.waiters == 0 {
		return nil
	}
	list := make([]uint64, 2+len(banked))
	list[0], list[1] = uint64(gone.signalers), uint64(gone.waiters)
	for i, n := range banked {
		list[len(list)-1-i] = n // highest epoch first, as in an arrive
	}
	return list
}

// outstanding lists the signaling members that have not signaled e.
func (t *memberTable) outstanding(e int64) (ids []uint64) {
	for i, id := range t.ids {
		if s := t.at(int32(i)); s >= 0 && s <= e {
			ids = append(ids, id)
		}
	}
	return ids
}

// tally adds one to h[j], growing h to hold it.
func tally(h []uint64, j int64) []uint64 {
	for int64(len(h)) <= j {
		h = append(h, 0)
	}
	h[j]++
	return h
}

// distinct reports whether no id repeats in ids. It probes an open-
// addressing set of positions (slot+1, 0 empty) kept at most half full,
// about 8 bytes per id and dropped on return; the hash is keyed afresh
// from hash/maphash on every call, so no choice of ids makes the probing
// quadratic.
func distinct(ids []uint64) bool {
	if len(ids) < 2 {
		return true
	}
	key := maphash.Bytes(maphash.MakeSeed(), nil)
	set := make([]int32, 2*len(ids))
	for i, id := range ids {
		j, _ := bits.Mul64(rdvmix(key, id), uint64(len(set)))
		for set[j] != 0 {
			if ids[set[j]-1] == id {
				return false
			}
			if j++; j == uint64(len(set)) {
				j = 0
			}
		}
		set[j] = int32(i + 1)
	}
	return true
}

// Dial attaches a client connection at addr (>= transport.ConnAddrBase)
// to nw. On a UDPNet the caller must Register every shard route first.
func Dial(nw transport.Network, addr transport.Addr, cfg Config) (*Conn, error) {
	if addr < transport.ConnAddrBase {
		return nil, fmt.Errorf("barrierd: connection address %d collides with shard space", addr)
	}
	cfg = cfg.withDefaults()
	c := &Conn{ring: Ring{Shards: cfg.Shards}}
	c.sendOne = func() {
		c.sendMu.Lock()
		s := c.sends.pop()
		c.sendMu.Unlock()
		c.r.Send(s.to, s.m)
	}
	r, ep, err := transport.AttachReliable(nw, addr, cfg.reliable,
		func(_ *transport.Reliable, m transport.Message) { c.onMessage(m) }, nil)
	if err != nil {
		return nil, err
	}
	c.ep, c.r = ep, r
	return c, nil
}

// Close detaches the connection.
func (c *Conn) Close() error { return c.ep.Close() }

// Addr returns the connection's transport address.
func (c *Conn) Addr() transport.Addr { return c.ep.Addr() }

// Now returns the connection's transport clock (virtual ticks on
// SimNet, nanoseconds otherwise). From a callback it is the dispatch
// context's current time.
func (c *Conn) Now() int64 { return c.ep.Now() }

// After schedules fn on the connection's dispatch context after delay
// transport units — the pacing primitive deterministic offered-load
// drives use on SimNet (E19). On SimNet it is only safe from inside a
// callback or before Run, like any endpoint timer.
func (c *Conn) After(delay int64, fn func()) { c.ep.After(delay, fn) }

// TransportStats returns the reliability-layer counters for this
// connection. Only safe when the transport is quiescent (on SimNet:
// outside Run).
func (c *Conn) TransportStats() transport.ReliableStats { return c.r.Stats }

// TransportStatsSync fetches the counters through the dispatch
// context — the safe form on the real-time transports (blocks; not for
// SimNet, whose Do only runs inside Run).
func (c *Conn) TransportStatsSync() transport.ReliableStats {
	ch := make(chan transport.ReliableStats, 1)
	c.ep.Do(func() { ch <- c.r.Stats })
	return <-ch
}

// group returns g's state, creating it on first use.
func (c *Conn) group(g uint32) *connGroup {
	if d := c.dense.Load(); d != nil && g < uint32(len(*d)) && (*d)[g] != nil {
		return (*d)[g]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cg := c.groups.Get(g)
	if cg == nil {
		cg = &connGroup{}
		cg.released.Store(-1)
		c.groups.Put(g, cg)
		if g < transport.DenseBound {
			var d []*connGroup
			if p := c.dense.Load(); p != nil {
				d = *p
			}
			if int(g) < len(d) {
				d = slices.Clone(d)
			} else {
				d = slices.Grow(d, int(g)+1-len(d))[:g+1]
			}
			d[g] = cg
			c.dense.Store(&d)
		}
	}
	return cg
}

// onMessage handles server traffic on the dispatch context. A JoinOK for
// epoch e also says that every epoch before e is complete.
func (c *Conn) onMessage(m transport.Message) {
	joinOK, released := m.Kind == transport.KindJoinOK, m.Epoch
	if joinOK {
		released--
	} else if m.Kind != transport.KindRelease {
		return
	}
	var buf [16]watcher
	due := buf[:0] // the watchers this release fires
	var joined []func(epoch int64)
	var epoch int64
	c.mu.Lock()
	cg := c.groups.Get(m.Group)
	if cg == nil {
		c.mu.Unlock()
		return
	}
	if released > cg.released.Load() {
		cg.released.Store(released)
		kept := cg.watchers[:0]
		for _, w := range cg.watchers {
			if w.epoch <= released {
				due = append(due, w)
			} else {
				kept = append(kept, w)
			}
		}
		clear(cg.watchers[len(kept):]) // drop the fired callbacks
		cg.watchers = kept
	}
	if joinOK {
		cg.joinPending--
		cg.joinEpoch = max(cg.joinEpoch, m.Epoch)
		if cg.joinPending <= 0 {
			joined, epoch = cg.joinDone, cg.joinEpoch
			cg.joinDone = nil
		}
	}
	c.mu.Unlock()
	if joinOK {
		t, owes := &cg.members, int64(waitOnly)
		if signals(m.Mode) {
			owes = m.Epoch
		}
		t.mu.Lock()
		t.unpark(uint32(m.Client), owes)
		t.mu.Unlock()
	}
	for _, w := range due {
		w.fn(released)
	}
	for _, fn := range joined {
		fn(epoch)
	}
}

// send marshals a protocol send to g's ingress shard onto the dispatch
// context.
func (c *Conn) send(g uint32, m transport.Message) {
	m.Group = g
	c.sendMu.Lock()
	c.sends.push(queuedSend{ShardAddr(c.ring.Ingress(g, c.ep.Addr())), m})
	c.sendMu.Unlock()
	c.ep.Do(c.sendOne)
}

// JoinBatch registers ids in g with the given mode; an id that is
// already a member keeps its registration. done (may be nil) fires on the
// dispatch context once every outstanding join on this group is
// confirmed, with the epoch the members participate from. A mode that is
// none of the three panics.
func (c *Conn) JoinBatch(g uint32, mode core.PhaserMode, ids []uint64, done func(epoch int64)) {
	if mode < core.SignalWait || mode > core.WaitOnly {
		panic(fmt.Sprintf("barrierd: JoinBatch with invalid phaser mode %d", int(mode)))
	}
	cg := c.group(g)
	c.mu.Lock()
	cg.joinPending++
	if done != nil {
		cg.joinDone = append(cg.joinDone, done)
	}
	c.batches++
	batch := c.batches
	c.mu.Unlock()

	t := &cg.members
	t.mu.Lock()
	n := t.join(batch, ids)
	t.mu.Unlock()
	c.send(g, transport.Message{
		Kind: transport.KindJoin, Mode: uint8(mode),
		Client: uint64(c.ep.Addr())<<32 | uint64(batch), List: []uint64{uint64(n)},
	})
}

// ArriveBatch signals that each id in ids has arrived at epoch e of g:
// every epoch up to e that a member has not signaled gains its signal.
// Ids that are not confirmed signaling members or have signaled e are
// passed over, so a replayed or overlapping batch counts once; so is the
// whole call if e is more than phase.MaxAhead past the last release seen.
// A batch that names every member in registration order, the same cohort
// every epoch as in any SPMD client, costs one compare of the ids while
// the members agree; any other batch is walked id by id.
func (c *Conn) ArriveBatch(g uint32, e int64, ids []uint64) {
	cg := c.group(g)
	var added []uint64
	t := &cg.members
	t.mu.Lock()
	// Outside the window every member has signaled e, or e is too far ahead.
	if released := cg.released.Load(); e > released && e <= released+phase.MaxAhead {
		added = t.arrive(e, ids)
	}
	t.mu.Unlock()
	if len(added) > 0 {
		c.send(g, transport.Message{Kind: transport.KindArrive, Epoch: e, List: added})
	}
}

// LeaveBatch deregisters ids from g, taking back the signals they had
// banked for epochs not yet released. Unknown and unconfirmed ids are
// passed over: a member can leave once its join is confirmed. Like an
// arrival, a batch that names every member in registration order costs
// one compare of the ids while the members agree.
func (c *Conn) LeaveBatch(g uint32, ids []uint64) {
	cg := c.group(g)
	t := &cg.members
	t.mu.Lock()
	released := cg.released.Load()
	list := t.leave(released, ids)
	t.mu.Unlock()
	if list != nil {
		c.send(g, transport.Message{Kind: transport.KindLeave, Epoch: released + int64(len(list)-2), List: list})
	}
}

// Outstanding lists the signaling members of g on this connection that
// have not signaled the first unreleased epoch: the last step of the
// straggler drill-down a StuckReport starts.
func (c *Conn) Outstanding(g uint32) (epoch int64, ids []uint64) {
	cg := c.group(g)
	t := &cg.members
	t.mu.Lock()
	defer t.mu.Unlock()
	released := cg.released.Load()
	if released >= DrainEpoch {
		return released + 1, nil // drained: nothing is owed
	}
	return released + 1, t.outstanding(released + 1)
}

// Released returns the highest epoch of g known released (DrainEpoch
// once the group drained; -1 before any release).
func (c *Conn) Released(g uint32) int64 { return c.group(g).released.Load() }

// WhenReleased fires fn (dispatch context) once g's release reaches
// epoch — immediately if it already has. This is the Wait half of the
// split-phase barrier; everything the caller does before fn fires is
// its barrier region.
func (c *Conn) WhenReleased(g uint32, epoch int64, fn func(released int64)) {
	cg := c.group(g)
	c.mu.Lock()
	if rel := cg.released.Load(); rel >= epoch {
		c.mu.Unlock()
		fn(rel)
		return
	}
	cg.watchers = append(cg.watchers, watcher{epoch: epoch, fn: fn})
	c.mu.Unlock()
}

// AwaitJoined blocks until every outstanding join on g is confirmed
// (real-time transports only) and returns the participation epoch.
func (c *Conn) AwaitJoined(g uint32) int64 {
	ch := make(chan int64, 1)
	cg := c.group(g)
	c.mu.Lock()
	if cg.joinPending <= 0 {
		epoch := cg.joinEpoch
		c.mu.Unlock()
		return epoch
	}
	cg.joinDone = append(cg.joinDone, func(e int64) { ch <- e })
	c.mu.Unlock()
	return <-ch
}
