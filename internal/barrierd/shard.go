package barrierd

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/phase"
	"fuzzybarrier/internal/transport"
)

// Shard is one coordinator shard. For groups homed here it holds the
// group's phase.Counter — the census, the signals banked per open epoch,
// epoch advancement and the drain — sends the releases and runs the
// no-progress watchdog; for other groups it is a combine-tree node:
// signals accumulate briefly and go up as one sum, joins and leaves
// forward along the same path, and releases retrace it downward. No shard
// ever sees a client id.
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

	// Counters (read via Snapshot from outside the dispatch context).
	Arrivals int64 // signals applied (home) or accumulated (elsewhere)
	Releases int64 // release decisions made (home groups only)
	Stucks   int64 // watchdog reports emitted
	Rejected int64 // messages dropped unapplied: they claim more than their sender can
}

// census counts registered members by whether they gate the epoch.
type census struct{ signalers, waiters int64 }

func (c *census) add(mode uint8, n int64) {
	if signals(mode) {
		c.signalers += n
	} else {
		c.waiters += n
	}
}

// child is what a shard knows about one downstream sender of a group, a
// connection or a child shard: the members registered below it, and per
// open epoch its net signals — added by arrivals, taken back by the leaves
// of members that had banked them. A leave may overtake its own arrival,
// so a net can be negative for a while; it never exceeds signalers.
type child struct {
	addr transport.Addr
	census
	sig map[int64]int64
}

// groupState is one group's state at one shard.
type groupState struct {
	g    uint32
	home bool

	kids     []*child // by address: child shards, then connections
	released int64    // highest release seen/sent; epochs <= released are complete

	// signals sums the children's signals per open epoch until the next
	// flush forwards them (not at the home).
	signals    map[int64]int64
	flushArmed bool

	// Home-shard state: the phaser over the sums of the kids (its open
	// epoch is released+1 until it drains) and the watchdog's.
	ph          phase.Counter
	lastAdvance int64
	wdArmed     bool
}

// newShard builds shard idx of a cfg.Shards-way coordinator. Wire it to
// an endpoint whose Handler calls OnMessage; Start completes the hookup.
func newShard(idx int, cfg Config, onStuck func(StuckReport)) *Shard {
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

// group returns g's state, creating it: only a join does.
func (s *Shard) group(g uint32) *groupState {
	gs := s.groups[g]
	if gs == nil {
		gs = &groupState{
			g: g, home: s.ring.Home(g) == s.Idx, released: -1,
			signals: make(map[int64]int64), lastAdvance: s.ep.Now(),
		}
		s.groups[g] = gs
	}
	return gs
}

// child returns the state of gs's child at addr, nil if it never joined
// anything (add creates it instead).
func (gs *groupState) child(addr transport.Addr, add bool) *child {
	i, found := slices.BinarySearchFunc(gs.kids, addr, func(ch *child, a transport.Addr) int { return cmp.Compare(ch.addr, a) })
	if !found && add {
		gs.kids = slices.Insert(gs.kids, i, &child{addr: addr, sig: make(map[int64]int64)})
	} else if !found {
		return nil
	}
	return gs.kids[i]
}

// claim applies the bounds every count message shares — a known child,
// no more than phase.MaxAhead epochs named, none further than that ahead —
// and returns the child (nil if they fail) and the part of the per-epoch
// list, list[i] counting epoch m.Epoch-i, that is past the release; the
// rest is stale.
func (s *Shard) claim(m transport.Message, list []uint64) (*groupState, *child, []uint64) {
	gs := s.groups[m.Group]
	if gs == nil || len(list) > phase.MaxAhead || m.Epoch > gs.released+phase.MaxAhead {
		return nil, nil, nil
	}
	if m.Epoch <= gs.released {
		list = nil
	} else if span := m.Epoch - gs.released; span < int64(len(list)) {
		list = list[:span]
	}
	return gs, gs.child(m.From, false), list
}

// parent returns this shard's combine-tree parent address for gs.
func (s *Shard) parent(gs *groupState) transport.Addr {
	return ShardAddr(parentShard(s.Idx, s.ring.Home(gs.g), s.cfg.Shards, s.cfg.Radix))
}

// downHop returns this shard's child on the way down to conn — conn
// itself at its ingress shard — derived from the ring and the tree
// alone, so a JoinOK needs no per-join routing state. ok is false when
// conn's path does not cross this shard.
func (s *Shard) downHop(g uint32, conn transport.Addr) (hop transport.Addr, ok bool) {
	if conn < transport.ConnAddrBase {
		return 0, false
	}
	hop = conn
	for at, home := s.ring.Ingress(g, conn), s.ring.Home(g); at >= 0; at = parentShard(at, home, s.cfg.Shards, s.cfg.Radix) {
		if at == s.Idx {
			return hop, true
		}
		hop = ShardAddr(at)
	}
	return 0, false
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
		if gs := s.groups[m.Group]; gs != nil && !gs.home {
			s.release(gs, m.Epoch)
		}
	}
}

// handleJoin counts List[0] new members of mode Mode under the sending
// child. Client is the join's token, the joining connection's address over
// its batch number: the join must have come up the path that address says
// its JoinOK will go down. A drained group is done for good: its home
// (the only shard whose counter can drain) refuses the join.
func (s *Shard) handleJoin(m transport.Message) {
	hop, ok := s.downHop(m.Group, transport.Addr(m.Client>>32))
	if gs := s.groups[m.Group]; !ok || hop != m.From || len(m.List) != 1 || m.List[0] > math.MaxInt32 ||
		m.Mode > uint8(core.WaitOnly) || gs != nil && gs.ph.Drained() {
		s.Rejected++
		return
	}
	gs, n := s.group(m.Group), int64(m.List[0])
	gs.child(m.From, true).add(m.Mode, n)
	if !gs.home {
		s.r.Send(s.parent(gs), m) // as it is: Send readdresses it
		return
	}
	var joined census
	joined.add(m.Mode, n)
	gs.ph.Join(joined.signalers, joined.waiters)
	gs.lastAdvance = s.ep.Now() // membership change is progress
	s.armWatchdog(gs)           // a re-populated group needs coverage again
	// The epoch the batch participates from also tells everyone on the
	// way down that all before it are complete.
	s.r.Send(m.From, transport.Message{
		Kind: transport.KindJoinOK, Mode: m.Mode, Group: m.Group, Client: m.Client, Epoch: gs.released + 1,
	})
}

// handleJoinOK passes a confirmation one hop further down.
func (s *Shard) handleJoinOK(m transport.Message) {
	gs := s.groups[m.Group]
	hop, ok := s.downHop(m.Group, transport.Addr(m.Client>>32))
	if gs == nil || gs.home || !ok || gs.child(hop, false) == nil {
		return
	}
	s.release(gs, m.Epoch-1)
	s.r.Send(hop, m)
}

// handleLeave takes List[0] signalers and List[1] waiters off the sending
// child, and with them the signals the leavers had banked: List[2+i] for
// epoch Epoch-i.
//
// Counts commute, and that is what makes this safe without ids. A leave
// is forwarded at once while the leavers' own arrive may still sit in an
// accumulator below, so the retraction can land first: the home counter's
// net[k] then reads low by the signals still in flight, never high — an
// epoch can complete late, not early, and since checkComplete runs after
// every message it completes when the last of them lands. The invariant
// is net[k] <= signalers for every open k at the home (its futureReady,
// when members were ids): a registered signaler contributes at most one
// signal per epoch, a leaver's is retracted by the message that takes it
// out of signalers, and a joiner signals only after its JoinOK, that is
// after every shard on its path counted it. The same holds per child, in
// either delivery order, and is the bound hostile counts are checked
// against, so the counter never refuses what the child checks let by.
func (s *Shard) handleLeave(m transport.Message) {
	gs, ch, retract := s.claim(m, m.List[min(2, len(m.List)):])
	if ch == nil || len(m.List) < 2 || m.List[0] > uint64(ch.signalers) || m.List[1] > uint64(ch.waiters) {
		s.Rejected++
		return
	}
	gone := census{int64(m.List[0]), int64(m.List[1])}
	for _, n := range retract {
		if n > m.List[0] {
			s.Rejected++
			return
		}
	}
	for k, net := range ch.sig { // what stays signaled needs a signaler that stays
		if i := m.Epoch - k; i >= 0 && i < int64(len(retract)) {
			net -= int64(retract[i])
		}
		if net > ch.signalers-gone.signalers {
			s.Rejected++
			return
		}
	}
	ch.signalers -= gone.signalers
	ch.waiters -= gone.waiters
	for i, n := range retract {
		if k := m.Epoch - int64(i); n > 0 {
			ch.sig[k] -= int64(n)
			if gs.home {
				gs.ph.Retract(k, int64(n))
			}
		}
	}
	if !gs.home {
		s.r.Send(s.parent(gs), m)
		return
	}
	gs.lastAdvance = s.ep.Now()
	if gs.ph.Leave(gone.signalers, gone.waiters) {
		s.release(gs, DrainEpoch) // the last signaler is gone: everything releases
	} else {
		s.checkComplete(gs) // the remaining members alone decide
	}
}

// handleArrive adds a child's new signals: List[i] for epoch Epoch-i.
// An ingress shard gets them from a connection (KindArrive), the shards
// above as the sum a child shard forwarded (KindCombine).
func (s *Shard) handleArrive(m transport.Message) {
	gs, ch, signaled := s.claim(m, m.List)
	if ch == nil {
		s.Rejected++
		return
	}
	for i, n := range signaled {
		// Room is what the net may still grow by, not signalers: after an
		// overtaking leave one combine can carry both incarnations' signals.
		if room := ch.signalers - ch.sig[m.Epoch-int64(i)]; n > uint64(room) {
			s.Rejected++
			return
		}
	}
	for i, n := range signaled {
		if k := m.Epoch - int64(i); n > 0 {
			ch.sig[k] += int64(n)
			if gs.home {
				gs.ph.Signal(k, int64(n)) // within bounds: the child's are stricter
			} else {
				gs.signals[k] += int64(n)
			}
			s.Arrivals += int64(n)
		}
	}
	if gs.home {
		s.checkComplete(gs)
	} else if !gs.flushArmed && len(gs.signals) > 0 {
		gs.flushArmed = true
		s.ep.After(s.cfg.FlushDelay, func() {
			gs.flushArmed = false
			s.flush(gs)
		})
	}
}

// flush forwards the accumulated signals as one combine: the sums of the
// still-open epochs, highest first.
func (s *Shard) flush(gs *groupState) {
	lo, hi := int64(math.MaxInt64), gs.released
	for k := range gs.signals {
		if k <= gs.released {
			delete(gs.signals, k) // released while it waited
			continue
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	if len(gs.signals) == 0 {
		return
	}
	sums := make([]uint64, hi-lo+1)
	for k, n := range gs.signals {
		sums[hi-k] = uint64(n)
	}
	clear(gs.signals)
	s.r.Send(s.parent(gs), transport.Message{Kind: transport.KindCombine, Group: gs.g, Epoch: hi, List: sums})
}

// checkComplete completes every epoch the home's counter can, then
// publishes the highest completed one.
func (s *Shard) checkComplete(gs *groupState) {
	if gs.ph.Advance() > 0 {
		gs.lastAdvance = s.ep.Now()
		s.release(gs, gs.ph.Open()-1)
	}
}

// release records "every epoch <= e of gs is complete" and publishes it
// to every child: down the tree and out to connections.
func (s *Shard) release(gs *groupState, e int64) {
	if e <= gs.released {
		return
	}
	gs.released = e
	if gs.home {
		s.Releases++
	}
	out := transport.Message{Kind: transport.KindRelease, Group: gs.g, Epoch: e}
	for _, ch := range gs.kids {
		for k := range ch.sig {
			if k <= e {
				delete(ch.sig, k)
			}
		}
		s.r.Send(ch.addr, out)
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
		if gs.ph.Signalers()+gs.ph.Waiters() > 0 {
			s.armWatchdog(gs)
		}
	})
}

// checkStuck emits a StuckReport when the group has signalers but the
// epoch hasn't advanced within the watchdog window, naming the children
// that are short and by how much: the first step of a drill-down that
// Conn.Outstanding finishes. A group nobody is waiting on is idle, not
// stuck: with no signal yet for the open epoch and no wait-only member,
// its members have simply stopped arriving (a finished workload that has
// not left). Neither is a drained group.
func (s *Shard) checkStuck(gs *groupState) {
	since, e, signalers := s.ep.Now()-gs.lastAdvance, gs.released+1, gs.ph.Signalers()
	if signalers == 0 || since < s.cfg.Watchdog || gs.ph.Net(e) <= 0 && gs.ph.Waiters() == 0 {
		return
	}
	var short []string
	for _, ch := range gs.kids {
		if n := ch.signalers - ch.sig[e]; n > 0 && len(short) < 4 {
			who := fmt.Sprintf("shard %d", int(ch.addr-ShardAddr(0)))
			if ch.addr >= transport.ConnAddrBase {
				who = fmt.Sprintf("conn %d", ch.addr)
			}
			short = append(short, fmt.Sprintf("%s ×%d", who, n))
		}
	}
	why := []string{fmt.Sprintf("waiting-arrivals: %d of %d signalers outstanding at epoch %d (short: %s)",
		signalers-gs.ph.Net(e), signalers, e, strings.Join(short, ", "))}
	if unacked := s.r.Unacked(); unacked > 0 {
		why = append(why, "transport-backlog: "+s.r.PendingLine())
	}
	s.Stucks++
	if s.onStuck != nil {
		s.onStuck(StuckReport{Shard: s.Idx, Group: gs.g, Epoch: e, Since: since, Why: why})
	}
}

// signals reports whether a mode (a core.PhaserMode as the wire carries
// it) gates epoch advancement.
func signals(mode uint8) bool {
	return mode == uint8(core.SignalWait) || mode == uint8(core.SignalOnly)
}
