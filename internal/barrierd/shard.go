package barrierd

import (
	"fmt"
	"sort"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// Shard is one coordinator shard. For groups homed here it runs the
// phaser state machine (membership, per-member signal counters, epoch
// advancement, releases, the no-progress watchdog); for other groups it
// is a combine-tree node: arrival batches accumulate briefly and merge
// upward, joins and leaves forward along the same path, and releases
// retrace it downward.
//
// All state is confined to the shard's endpoint dispatch context — no
// locks; on SimNet every shard is fully deterministic.
type Shard struct {
	Idx int

	cfg     Config
	ring    Ring
	ep      transport.Endpoint
	r       *transport.Reliable
	onStuck func(StuckReport)

	groups map[uint32]*groupState
	gorder []uint32 // creation order, for deterministic sweeps

	// Counters (read via Snapshot from outside the dispatch context).
	Arrivals int64 // client arrivals applied (home) or accumulated (ingress)
	Releases int64 // release decisions made (home groups only)
	Stucks   int64 // watchdog reports emitted
}

// member is one registered client of a home group.
type member struct {
	mode core.PhaserMode
	// signaled is the absolute count of epochs this member has
	// signaled: epochs < signaled are covered. Members join with
	// signaled = the group's current epoch (they owe it, like
	// core.Phaser registration).
	signaled int64
}

// groupState is one group's state at one shard.
type groupState struct {
	g uint32

	conns []transport.Addr // local connections with members (sorted)
	kids  []transport.Addr // child shards with interest (sorted)

	released int64 // highest release seen/sent; epochs <= released are complete

	// pendingJoin maps a client awaiting JoinOK to the downstream
	// address its join came from (non-home shards on the join path).
	pendingJoin map[uint64]transport.Addr

	// Ingress/combine accumulation (non-home shards).
	acc        map[int64][]uint64 // epoch -> arrived client ids
	accN       int
	flushArmed bool

	// Home-shard phaser state.
	home        bool
	mem         map[uint64]*member
	epoch       int64
	futureReady map[int64]int // epoch -> members that have signaled it
	signalers   int
	lastAdvance int64
	wdArmed     bool
}

// NewShard builds shard idx of a cfg.Shards-way coordinator. Wire it to
// an endpoint whose Handler calls OnMessage; Start completes the hookup.
func NewShard(idx int, cfg Config, onStuck func(StuckReport)) *Shard {
	cfg = cfg.withDefaults()
	return &Shard{
		Idx: idx, cfg: cfg, ring: Ring{Shards: cfg.Shards},
		onStuck: onStuck, groups: make(map[uint32]*groupState),
	}
}

// Start binds the shard to its transport endpoint and reliability
// layer. Called once, before any message is dispatched.
func (s *Shard) Start(ep transport.Endpoint, r *transport.Reliable) {
	s.ep = ep
	s.r = r
}

// Snapshot reads the shard's counters from outside the dispatch
// context (marshals through Do and blocks for the result) — real-time
// transports only; on SimNet read the fields directly between Run
// calls, the dispatch context is the driving goroutine.
func (s *Shard) Snapshot() (arrivals, releases, stucks int64) {
	done := make(chan struct{})
	s.ep.Do(func() {
		arrivals, releases, stucks = s.Arrivals, s.Releases, s.Stucks
		close(done)
	})
	<-done
	return
}

func (s *Shard) group(g uint32) *groupState {
	gs := s.groups[g]
	if gs == nil {
		gs = &groupState{g: g, released: -1}
		if s.ring.Home(g) == s.Idx {
			gs.home = true
			gs.mem = make(map[uint64]*member)
			gs.futureReady = make(map[int64]int)
			gs.lastAdvance = s.ep.Now()
			s.armWatchdog(gs)
		} else {
			gs.pendingJoin = make(map[uint64]transport.Addr)
			gs.acc = make(map[int64][]uint64)
		}
		s.groups[g] = gs
		s.gorder = append(s.gorder, g)
	}
	return gs
}

// parent returns this shard's combine-tree parent address for gs.
func (s *Shard) parent(gs *groupState) transport.Addr {
	p := parentShard(s.Idx, s.ring.Home(gs.g), s.cfg.Shards, s.cfg.Radix)
	return ShardAddr(p)
}

// OnMessage is the shard's protocol dispatch (the Reliable deliver
// callback).
func (s *Shard) OnMessage(m transport.Message) {
	switch m.Kind {
	case transport.KindJoin:
		s.handleJoin(m)
	case transport.KindJoinOK:
		s.handleJoinOK(m)
	case transport.KindLeave:
		s.handleLeave(m)
	case transport.KindArrive, transport.KindCombine:
		s.handleArrive(m)
	case transport.KindRelease:
		s.handleRelease(m)
	}
}

// noteInterest records where traffic for gs came from, so releases can
// retrace the path.
func (s *Shard) noteInterest(gs *groupState, from transport.Addr) {
	list := &gs.kids
	if from >= transport.ConnAddrBase {
		list = &gs.conns
	}
	i := sort.Search(len(*list), func(i int) bool { return (*list)[i] >= from })
	if i < len(*list) && (*list)[i] == from {
		return
	}
	*list = append(*list, 0)
	copy((*list)[i+1:], (*list)[i:])
	(*list)[i] = from
}

// clients returns m's client-id payload: the batch List, else the
// single Client field.
func clients(m transport.Message) []uint64 {
	if len(m.List) > 0 {
		return m.List
	}
	return []uint64{m.Client}
}

func (s *Shard) handleJoin(m transport.Message) {
	gs := s.group(m.Group)
	s.noteInterest(gs, m.From)
	if !gs.home {
		for _, c := range clients(m) {
			gs.pendingJoin[c] = m.From
		}
		s.r.Send(s.parent(gs), transport.Message{
			Kind: transport.KindJoin, Mode: m.Mode, Group: m.Group, List: append([]uint64(nil), clients(m)...),
		})
		return
	}
	mode := core.PhaserMode(m.Mode)
	for _, c := range clients(m) {
		if gs.mem[c] != nil {
			continue // re-join: keep existing registration
		}
		gs.mem[c] = &member{mode: mode, signaled: gs.epoch}
		if signals(mode) {
			gs.signalers++
		}
	}
	gs.lastAdvance = s.ep.Now() // membership change is progress
	s.armWatchdog(gs)           // a re-populated group needs coverage again
	// Confirm with the epoch the batch participates from; the joiner
	// also learns anything already released.
	s.sendJoinOK(m.From, gs, append([]uint64(nil), clients(m)...))
}

func (s *Shard) sendJoinOK(to transport.Addr, gs *groupState, ids []uint64) {
	for len(ids) > 0 {
		n := len(ids)
		if n > MaxBatch {
			n = MaxBatch
		}
		s.r.Send(to, transport.Message{
			Kind: transport.KindJoinOK, Group: gs.g, Epoch: gs.epoch, List: ids[:n],
		})
		ids = ids[n:]
	}
	if gs.released >= 0 {
		s.r.Send(to, transport.Message{Kind: transport.KindRelease, Group: gs.g, Epoch: gs.released})
	}
}

// handleJoinOK forwards confirmations down the join path: bucket the
// batch by the downstream address each client's join arrived on.
func (s *Shard) handleJoinOK(m transport.Message) {
	gs := s.group(m.Group)
	if gs.home || gs.pendingJoin == nil {
		return
	}
	var order []transport.Addr
	buckets := make(map[transport.Addr][]uint64)
	for _, c := range clients(m) {
		to, ok := gs.pendingJoin[c]
		if !ok {
			continue
		}
		delete(gs.pendingJoin, c)
		if _, seen := buckets[to]; !seen {
			order = append(order, to)
		}
		buckets[to] = append(buckets[to], c)
	}
	for _, to := range order { // List order, not map order: deterministic
		ids := buckets[to]
		for len(ids) > 0 {
			n := len(ids)
			if n > MaxBatch {
				n = MaxBatch
			}
			s.r.Send(to, transport.Message{
				Kind: transport.KindJoinOK, Group: m.Group, Epoch: m.Epoch, List: ids[:n],
			})
			ids = ids[n:]
		}
	}
}

func (s *Shard) handleLeave(m transport.Message) {
	gs := s.group(m.Group)
	if !gs.home {
		s.noteInterest(gs, m.From)
		s.r.Send(s.parent(gs), transport.Message{
			Kind: transport.KindLeave, Group: m.Group, List: append([]uint64(nil), clients(m)...),
		})
		return
	}
	for _, c := range clients(m) {
		mm := gs.mem[c]
		if mm == nil {
			continue
		}
		delete(gs.mem, c)
		if signals(mm.mode) {
			// Un-count every epoch the leaver had signaled but the
			// group hasn't completed: remaining members alone decide.
			for k := gs.epoch; k < mm.signaled; k++ {
				gs.futureReady[k]--
			}
			gs.signalers--
		}
	}
	gs.lastAdvance = s.ep.Now()
	s.checkComplete(gs)
	if gs.signalers == 0 && gs.released < DrainEpoch {
		// Last signaler gone: the phaser drains — everything releases.
		s.release(gs, DrainEpoch)
	}
}

func (s *Shard) handleArrive(m transport.Message) {
	gs := s.group(m.Group)
	s.noteInterest(gs, m.From)
	if gs.home {
		for _, c := range clients(m) {
			s.applyArrive(gs, c, m.Epoch)
		}
		s.checkComplete(gs)
		return
	}
	// Combine-tree node: accumulate, then flush upward in a batch.
	gs.acc[m.Epoch] = append(gs.acc[m.Epoch], clients(m)...)
	gs.accN += len(clients(m))
	s.Arrivals += int64(len(clients(m)))
	if gs.accN >= s.cfg.FlushBatch {
		s.flush(gs)
		return
	}
	if !gs.flushArmed {
		gs.flushArmed = true
		s.ep.After(s.cfg.FlushDelay, func() {
			gs.flushArmed = false
			s.flush(gs)
		})
	}
}

// flush combines the accumulated arrivals into upward batches, epoch by
// epoch in ascending order (deterministic on SimNet).
func (s *Shard) flush(gs *groupState) {
	if gs.accN == 0 {
		return
	}
	epochs := make([]int64, 0, len(gs.acc))
	for e := range gs.acc {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	parent := s.parent(gs)
	for _, e := range epochs {
		ids := gs.acc[e]
		delete(gs.acc, e)
		for len(ids) > 0 {
			n := len(ids)
			if n > MaxBatch {
				n = MaxBatch
			}
			s.r.Send(parent, transport.Message{
				Kind: transport.KindCombine, Group: gs.g, Epoch: e, List: append([]uint64(nil), ids[:n]...),
			})
			ids = ids[n:]
		}
	}
	gs.accN = 0
}

// applyArrive advances one member's signaled range through epoch e —
// the phaser arrive: every epoch in [signaled, e] gains this member's
// signal.
func (s *Shard) applyArrive(gs *groupState, c uint64, e int64) {
	mm := gs.mem[c]
	if mm == nil || !signals(mm.mode) {
		return // unknown (stale) client, or a waiter: no signal to count
	}
	if e < mm.signaled {
		return // replay of an already-signaled epoch
	}
	if e-mm.signaled > maxEpochSkip {
		return // wire value out of any plausible range
	}
	for k := mm.signaled; k <= e; k++ {
		gs.futureReady[k]++
	}
	mm.signaled = e + 1
	s.Arrivals++
}

// checkComplete advances the epoch while every signaler has signaled
// it, then publishes the highest completed epoch.
func (s *Shard) checkComplete(gs *groupState) {
	advanced := false
	for gs.signalers > 0 && gs.futureReady[gs.epoch] == gs.signalers {
		delete(gs.futureReady, gs.epoch)
		gs.epoch++
		advanced = true
	}
	if advanced {
		gs.lastAdvance = s.ep.Now()
		s.release(gs, gs.epoch-1)
	}
}

// release publishes "every epoch <= e of gs is complete" down the tree
// and out to connections.
func (s *Shard) release(gs *groupState, e int64) {
	if e <= gs.released {
		return
	}
	gs.released = e
	s.Releases++
	out := transport.Message{Kind: transport.KindRelease, Group: gs.g, Epoch: e}
	for _, to := range gs.conns {
		s.r.Send(to, out)
	}
	for _, to := range gs.kids {
		s.r.Send(to, out)
	}
}

// handleRelease forwards a release downward (non-home shards).
func (s *Shard) handleRelease(m transport.Message) {
	gs := s.group(m.Group)
	if gs.home {
		return
	}
	if m.Epoch <= gs.released {
		return
	}
	gs.released = m.Epoch
	out := transport.Message{Kind: transport.KindRelease, Group: m.Group, Epoch: m.Epoch}
	for _, to := range gs.conns {
		s.r.Send(to, out)
	}
	for _, to := range gs.kids {
		if to != m.From {
			s.r.Send(to, out)
		}
	}
}

// armWatchdog schedules the group's periodic no-progress check.
func (s *Shard) armWatchdog(gs *groupState) {
	if s.cfg.Watchdog <= 0 || gs.wdArmed {
		return
	}
	gs.wdArmed = true
	s.ep.After(s.cfg.Watchdog, func() {
		gs.wdArmed = false
		s.checkStuck(gs)
		if len(gs.mem) > 0 || gs.signalers > 0 {
			s.armWatchdog(gs)
		}
	})
}

// checkStuck emits a StuckReport when the group has signalers but the
// epoch hasn't advanced within the watchdog window, naming what the
// shard can see blocking it. A group nobody is waiting on is idle, not
// stuck: with no signal yet for the current epoch and no wait-only
// member registered, its members have simply stopped arriving (a
// finished workload that has not left), and there is nothing to report.
func (s *Shard) checkStuck(gs *groupState) {
	now := s.ep.Now()
	since := now - gs.lastAdvance
	if gs.signalers == 0 || since < s.cfg.Watchdog {
		return
	}
	var why []string
	missing := make([]uint64, 0, 8)
	outstanding, waiters := 0, 0
	for c, mm := range gs.mem {
		if !signals(mm.mode) {
			waiters++
		} else if mm.signaled <= gs.epoch {
			outstanding++
			missing = append(missing, c)
		}
	}
	if outstanding == gs.signalers && waiters == 0 {
		return
	}
	if outstanding > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		if len(missing) > 4 {
			missing = missing[:4]
		}
		why = append(why, fmt.Sprintf(
			"waiting-arrivals: %d of %d signalers outstanding at epoch %d (e.g. clients %v)",
			outstanding, gs.signalers, gs.epoch, missing))
	} else {
		why = append(why, fmt.Sprintf(
			"arrivals-signaled-but-epoch-stalled: futureReady=%d signalers=%d (combine batch in flight or lost)",
			gs.futureReady[gs.epoch], gs.signalers))
	}
	if unacked := s.r.Unacked(); unacked > 0 {
		why = append(why, "transport-backlog: "+s.r.PendingLine())
	}
	if len(gs.conns)+len(gs.kids) == 0 {
		why = append(why, "no-paths: group has no attached connections or child shards")
	}
	s.Stucks++
	if s.onStuck != nil {
		s.onStuck(StuckReport{Shard: s.Idx, Group: gs.g, Epoch: gs.epoch, Since: since, Why: why})
	}
}

// signals reports whether a mode gates epoch advancement.
func signals(m core.PhaserMode) bool {
	return m == core.SignalWait || m == core.SignalOnly
}
