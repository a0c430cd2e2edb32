package barrierd

import (
	"fmt"
	"testing"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/transport"
)

// refGroup is the id-level phaser the home shard was before counts
// replaced ids on the wire: one record per member with its signaled
// range, futureReady per epoch, leavers' banked signals un-counted. The
// service is now a Conn-side table plus sums, and this is what it must
// still add up to: the tests below feed it every call the clients make,
// at the tick they make it, and hold each release against it. It departs
// from the old shard in two places: ids are keyed by connection, and only
// a signaler's leave drains (the old one drained a group that had only
// ever held a waiter).
type refGroup struct {
	mem map[refKey]*refMember
	// parked holds the ids of JoinBatch calls whose JoinOK is still out:
	// like the Conn, the reference passes them over until then.
	parked      map[refKey]bool
	futureReady map[int64]int
	epoch       int64
	released    int64
	signalers   int
}

type refKey struct {
	conn transport.Addr
	id   uint64
}

type refMember struct {
	mode     core.PhaserMode
	signaled int64
}

func newRefGroup() *refGroup {
	return &refGroup{mem: map[refKey]*refMember{}, parked: map[refKey]bool{}, futureReady: map[int64]int{}, released: -1}
}

// join registers k owing epoch, the one its JoinOK named.
func (r *refGroup) join(k refKey, mode core.PhaserMode, epoch int64) {
	if r.mem[k] != nil {
		return
	}
	r.mem[k] = &refMember{mode: mode, signaled: epoch}
	if signals(uint8(mode)) {
		r.signalers++
	}
}

func (r *refGroup) arrive(k refKey, e int64) {
	m := r.mem[k]
	if m == nil || !signals(uint8(m.mode)) || e < m.signaled {
		return
	}
	for x := m.signaled; x <= e; x++ {
		r.futureReady[x]++
	}
	m.signaled = e + 1
	r.checkComplete()
}

func (r *refGroup) leave(k refKey) {
	m := r.mem[k]
	if m == nil {
		return
	}
	delete(r.mem, k)
	if !signals(uint8(m.mode)) {
		return
	}
	for x := r.epoch; x < m.signaled; x++ {
		r.futureReady[x]--
	}
	r.signalers--
	r.checkComplete()
	if r.signalers == 0 {
		r.released = DrainEpoch
	}
}

func (r *refGroup) checkComplete() {
	for r.signalers > 0 && r.futureReady[r.epoch] == r.signalers {
		delete(r.futureReady, r.epoch)
		r.epoch++
	}
	r.released = max(r.released, r.epoch-1)
}

// oracleRun is one churn scenario on a SimNet, mirrored call by call
// into a refGroup per group.
type oracleRun struct {
	t     *testing.T
	nw    *transport.SimNet
	conns []*Conn
	ref   []*refGroup
}

// join mirrors a JoinBatch. A (connection, group) has one outstanding at
// a time, so done's epoch is that batch's.
func (o *oracleRun) join(c *Conn, g uint32, mode core.PhaserMode, ids []uint64, done func(epoch int64)) {
	ref := o.ref[g]
	var fresh []refKey
	for _, id := range ids {
		if k := (refKey{c.Addr(), id}); ref.mem[k] == nil && !ref.parked[k] {
			ref.parked[k] = true
			fresh = append(fresh, k)
		}
	}
	c.JoinBatch(g, mode, ids, func(epoch int64) {
		for _, k := range fresh {
			delete(ref.parked, k)
			ref.join(k, mode, epoch)
		}
		done(epoch)
	})
}

func (o *oracleRun) arrive(c *Conn, g uint32, e int64, ids ...uint64) {
	c.ArriveBatch(g, e, ids)
	for _, id := range ids {
		o.ref[g].arrive(refKey{c.Addr(), id}, e)
	}
}

func (o *oracleRun) leave(c *Conn, g uint32, ids ...uint64) {
	c.LeaveBatch(g, ids)
	for _, id := range ids {
		o.ref[g].leave(refKey{c.Addr(), id})
	}
}

// justified fails the test if any connection knows of a release the
// reference has not made, given every call up to this tick.
func (o *oracleRun) justified() {
	for _, c := range o.conns {
		for g, ref := range o.ref {
			if rel := c.Released(uint32(g)); rel > ref.released {
				o.t.Fatalf("tick %d: conn %d saw group %d released through %d, the reference only through %d (epoch %d: %d of %d signals)",
					o.nw.Now(), c.Addr(), g, rel, ref.released, ref.epoch, ref.futureReady[ref.epoch], ref.signalers)
			}
		}
	}
}

// TestCountsAgainstIDOracle drives churn in all three phaser modes over
// clean, jittery and lossy links and checks the two things counts could
// get wrong without anybody noticing: no connection ever learns of a
// release the id-level reference has not made at that tick, and every
// epoch the stable members arrive at does release, down to the drain.
//
// Per group, two stable connections hold the same six ids (ids are scoped
// to a connection). One arrives with its batch in registration order —
// the sequential-compare path — then replays an overlapping part of it
// and names an id that never joined; the other arrives with the batch
// reversed, so every id goes through the index, and holds one id back for
// many round trips, so an epoch released one signal short would be seen
// before the reference has it. Two churning connections
// join, arrive before their JoinOK (passed over), and leave with banked
// signals: one after its first owed epoch released, with the next still
// banked, the other in the same tick as its arrive, which is then still
// in an ingress accumulator when the leave overtakes it. Both re-join at
// once, rotating through the modes.
func TestCountsAgainstIDOracle(t *testing.T) {
	nets := []struct {
		name string
		cfg  transport.SimConfig
	}{
		{"clean", transport.SimConfig{Latency: 2}},
		{"jitter", transport.SimConfig{Latency: 2, Jitter: 6}},
		{"lossy", transport.SimConfig{Latency: 2, Jitter: 6, DropRate: 0.2, DupRate: 0.3}},
	}
	for _, net := range nets {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", net.name, seed), func(t *testing.T) {
				net.cfg.Seed = seed
				runOracle(t, net.cfg)
			})
		}
	}
}

func runOracle(t *testing.T, simCfg transport.SimConfig) {
	const (
		groups    = 3
		minEpochs = 10
		rounds    = 6 // per churner and group: each mode twice
		lag       = 60
	)
	nw := transport.NewSimNet(simCfg)
	cfg := SimConfig(simCfg.Latency, simCfg.Jitter)
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	o := &oracleRun{t: t, nw: nw}
	for i := 0; i < 4; i++ {
		c, err := Dial(nw, transport.ConnAddrBase+transport.Addr(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.conns = append(o.conns, c)
	}
	for g := 0; g < groups; g++ {
		o.ref = append(o.ref, newRefGroup())
	}
	inOrder, lingerer, hasty := o.conns[0], o.conns[2], o.conns[3]
	stableIDs, reversed := []uint64{1, 2, 3, 4, 5, 6}, []uint64{6, 5, 4, 3, 2, 1}
	modes := []core.PhaserMode{core.SignalOnly, core.WaitOnly, core.SignalWait}

	// Every actor is a poll function the run calls between events.
	var actors []func()
	churnLeft := make([]int, groups) // churner rounds still to finish, per group
	stop := make([]int64, groups)    // last epoch the stable members drive; -1 until the churn is over
	for g := uint32(0); g < groups; g++ {
		churnLeft[g], stop[g] = 2*rounds, -1
		// Nobody arrives or churns before both stable connections are in:
		// a churner alone in the group would complete epochs by itself and
		// drain it for good when it left, which is correct and not the test.
		var cur [2]int64 // next epoch each stable connection arrives at
		stableIn := 0
		for i, c := range o.conns[:2] {
			const (
				awake = iota
				resting
				rested
			)
			rest := awake
			o.join(c, g, core.SignalWait, stableIDs, func(epoch int64) { stableIn, cur[i] = stableIn+1, epoch })
			actors = append(actors, func() {
				if stableIn < 2 || c.Released(g) < cur[i]-1 || stop[g] >= 0 && cur[i] > stop[g] {
					return
				}
				if c != inOrder && rest != rested {
					if rest == awake { // id 1 is the laggard: every other signal lands long before its own is sent
						rest = resting
						o.arrive(c, g, cur[i], reversed[:5]...)
						c.After(lag, func() { rest = rested })
					}
					return
				}
				if churnLeft[g] == 0 && stop[g] < 0 {
					stop[g] = max(cur[0], cur[1], minEpochs)
				}
				if c == inOrder {
					o.arrive(c, g, cur[i], append(stableIDs, 999)...)
					o.arrive(c, g, cur[i], 5, 6, 1, 2)
				} else {
					o.arrive(c, g, cur[i], reversed...)
					rest = awake
				}
				cur[i]++
			})
		}
		for _, c := range []*Conn{lingerer, hasty} {
			const (
				idle      = iota // not a member
				parked           // JoinBatch sent
				confirmed        // JoinOK in: owes epoch owed
				banked           // lingerer only: signaled owed and owed+1, waiting for owed's release
			)
			ids := []uint64{10, 11}
			phase, round, owed := idle, 0, int64(0)
			actors = append(actors, func() {
				switch {
				case phase == idle && round < rounds && stableIn == 2:
					phase = parked
					o.join(c, g, modes[round%3], ids, func(epoch int64) { phase, owed = confirmed, epoch })
					o.arrive(c, g, c.Released(g)+1, ids...) // not a member yet
					return
				case phase == confirmed && c == lingerer:
					phase = banked
					o.arrive(c, g, owed+1, ids...)
					return
				case phase == confirmed:
					o.arrive(c, g, owed+1, ids...)
				case phase == banked && c.Released(g) >= owed:
				default:
					return
				}
				o.leave(c, g, ids...)
				phase, round = idle, round+1
				churnLeft[g]--
			})
		}
	}
	finished := func() bool {
		o.justified()
		for _, poll := range actors {
			poll()
		}
		for g := uint32(0); g < groups; g++ {
			if stop[g] < 0 || o.conns[0].Released(g) < stop[g] || o.conns[1].Released(g) < stop[g] {
				return false
			}
		}
		return true
	}
	if _, ok := nw.Run(2_000_000, finished); !ok {
		for g := uint32(0); g < groups; g++ {
			t.Logf("group %d: churn rounds left %d, stop %d, stable released %d and %d, reference %d",
				g, churnLeft[g], stop[g], o.conns[0].Released(g), o.conns[1].Released(g), o.ref[g].released)
		}
		t.Fatalf("tick %d: not every epoch released", nw.Now())
	}
	// The last signalers leave: everything drains, in the reference too.
	for g := uint32(0); g < groups; g++ {
		o.leave(o.conns[0], g, stableIDs...)
		o.leave(o.conns[1], g, stableIDs...)
	}
	drained := func() bool {
		o.justified()
		for _, c := range o.conns {
			for g := uint32(0); g < groups; g++ {
				if c.Released(g) < DrainEpoch {
					return false
				}
			}
		}
		return true
	}
	if _, ok := nw.Run(nw.Now()+200_000, drained); !ok {
		t.Fatalf("tick %d: groups did not drain after the last signaler left", nw.Now())
	}
	for _, sh := range svc.Shards {
		if sh.Rejected > 0 {
			t.Errorf("shard %d dropped %d messages of well-behaved connections", sh.Idx, sh.Rejected)
		}
	}
}
