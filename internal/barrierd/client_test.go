package barrierd

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"fuzzybarrier/internal/core"
	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/phase"
	"fuzzybarrier/internal/transport"
)

// refTable is the member table as it was before it had a shared form: one
// signaled per member, always, every batch walked id by id through the
// index. memberTable must answer every call exactly as it does.
type refTable struct {
	ids      []uint64
	signaled []int64
	index    map[uint64]int32
}

func (r *refTable) join(batch uint32, ids []uint64) (n int) {
	if r.index == nil {
		r.index = map[uint64]int32{}
	}
	for _, id := range ids {
		if _, dup := r.index[id]; !dup {
			r.index[id] = int32(len(r.ids))
			r.ids, r.signaled = append(r.ids, id), append(r.signaled, -int64(batch))
			n++
		}
	}
	return n
}

func (r *refTable) unpark(batch uint32, owes int64) {
	for i, s := range r.signaled {
		if s == -int64(batch) {
			r.signaled[i] = owes
		}
	}
}

func (r *refTable) arrive(e int64, ids []uint64) (added []uint64) {
	for _, id := range ids {
		if i, ok := r.index[id]; ok {
			if s := r.signaled[i]; s >= 0 && s <= e {
				r.signaled[i] = e + 1
				added = tally(added, e-s)
			}
		}
	}
	for j := len(added) - 2; j >= 0; j-- {
		added[j] += added[j+1]
	}
	return added
}

func (r *refTable) leave(released int64, ids []uint64) []uint64 {
	var gone census
	var banked []uint64
	for _, id := range ids {
		i, ok := r.index[id]
		if !ok || r.signaled[i] < 0 {
			continue
		}
		if s := r.signaled[i]; s == waitOnly {
			gone.waiters++
		} else {
			gone.signalers++
			for k := released + 1; k < s; k++ {
				banked = tally(banked, k-released-1)
			}
		}
		last := int32(len(r.ids) - 1)
		delete(r.index, r.ids[i])
		if i != last {
			r.ids[i], r.signaled[i] = r.ids[last], r.signaled[last]
			r.index[r.ids[i]] = i
		}
		r.ids, r.signaled = r.ids[:last], r.signaled[:last]
	}
	if gone.signalers+gone.waiters == 0 {
		return nil
	}
	slices.Reverse(banked)
	return append([]uint64{uint64(gone.signalers), uint64(gone.waiters)}, banked...)
}

func (r *refTable) outstanding(e int64) (ids []uint64) {
	for i, s := range r.signaled {
		if s >= 0 && s <= e {
			ids = append(ids, r.ids[i])
		}
	}
	return ids
}

// tableProgram runs one seeded random program of joins, JoinOKs,
// arrivals and leaves on a memberTable and on refTable, the way a Conn
// drives its table, and returns the first step at which the two disagree.
// The release follows the slowest confirmed signaler, as if the
// connection were alone in its group, but often a step late. Even seeds
// are SPMD-like: every batch signals and waits, and half the arrivals and
// half the leaves name the whole table in order.
func tableProgram(seed uint64, steps int) (st programStats, err error) {
	rng := des.NewRNG(seed)
	var t memberTable
	var r refTable
	type joinBatch struct {
		n    uint32
		mode core.PhaserMode
		ids  []uint64
	}
	var parked []joinBatch // JoinOK still out
	batches, released, nextID := uint32(0), int64(-1), uint64(1)
	spmd := seed%2 == 0
	// SPMD programs confirm joins sooner and release later, so a whole
	// table often leaves confirmed, with signals banked past the release.
	confirm, catchUp := int64(5), int64(2) // the release reaches the slowest signaler one step in catchUp
	if spmd {
		confirm, catchUp = 9, 4
	}
	pick := func(ids []uint64) uint64 { return ids[rng.IntN(int64(len(ids)))] }
	subset := func(ids []uint64) (out []uint64) {
		for _, id := range ids {
			if rng.IntN(2) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	parkedIDs := func() []uint64 {
		if len(parked) == 0 {
			return subset(r.ids)
		}
		return parked[rng.IntN(int64(len(parked)))].ids
	}
	for step := range steps {
		var what string
		switch op := rng.IntN(20); {
		case (op < 3 || op < 10 && len(r.ids) == 0) && len(r.ids) < 40:
			batches++
			b := joinBatch{n: batches, mode: core.PhaserMode(rng.IntN(3))}
			if spmd {
				b.mode = core.SignalWait
			}
			for range rng.IntN(7) { // none: the batch names members only, or nobody
				b.ids, nextID = append(b.ids, nextID), nextID+1
			}
			ids := slices.Clone(b.ids)
			if len(b.ids) > 0 && rng.IntN(3) == 0 {
				ids = append(ids, pick(b.ids)) // a duplicate within the batch
			}
			if len(r.ids) > 0 && rng.IntN(3) == 0 {
				ids = append(ids, pick(r.ids)) // already a member: keeps its registration
			}
			what = fmt.Sprintf("join batch %d %v of %v", b.n, b.mode, ids)
			if got, want := t.join(b.n, ids), r.join(b.n, ids); got != want {
				return st, fmt.Errorf("step %d, %s: added %d members, reference %d", step, what, got, want)
			}
			parked = append(parked, b)
		case op < confirm && len(parked) > 0:
			i := rng.IntN(int64(len(parked)))
			b, owes := parked[i], int64(waitOnly)
			parked = slices.Delete(parked, int(i), int(i)+1)
			if b.mode != core.WaitOnly {
				owes = released + 1
			}
			what = fmt.Sprintf("JoinOK for batch %d %v owing %d", b.n, b.mode, owes)
			t.unpark(b.n, owes)
			r.unpark(b.n, owes)
		case op < 17:
			e := released + 1 + rng.IntN(4) // the open epoch, or banked 1–3 ahead
			if rng.IntN(8) == 0 {
				e = released - rng.IntN(2) // stale
			}
			ids, shape := slices.Clone(r.ids), rng.IntN(9)
			if spmd && rng.IntN(2) == 0 {
				shape = 0
			}
			switch shape {
			case 0, 1, 2, 3: // in order
			case 4: // a duplicate, beside the batch or in a member's place
				if len(ids) > 0 {
					j, dup := int(rng.IntN(int64(len(ids)))), pick(ids)
					if rng.IntN(2) == 0 {
						ids = slices.Insert(ids, j, dup)
					} else {
						ids[j] = dup
					}
				}
			case 5:
				slices.Reverse(ids)
			case 6:
				ids = subset(ids)
			case 7:
				ids = slices.Insert(ids, int(rng.IntN(int64(len(ids)+1))), 1<<40+uint64(step)) // never joined
			case 8:
				ids = parkedIDs()
			}
			what = fmt.Sprintf("arrive at %d with %v", e, ids)
			wasShared := t.signaled == nil && len(t.ids) > 0
			if got, want := t.arrive(e, ids), r.arrive(e, ids); !slices.Equal(got, want) {
				return st, fmt.Errorf("step %d, %s: sent %v, reference %v", step, what, got, want)
			}
			if wasShared {
				st.sharedArrivals++
			}
		default:
			var ids []uint64
			shape := rng.IntN(3)
			if spmd && rng.IntN(2) == 0 {
				shape = 1
			}
			switch shape {
			case 0:
				ids = subset(r.ids)
			case 1:
				ids = slices.Clone(r.ids) // everyone
			case 2:
				ids = parkedIDs()
			}
			what = fmt.Sprintf("leave after %d with %v", released, ids)
			if t.whole(ids) {
				st.wholeLeaves++
				switch s := t.shared; {
				case s < 0:
					st.wholeParked++
				case s != waitOnly && s > released+1:
					st.wholeBanked++
				}
			}
			if got, want := t.leave(released, ids), r.leave(released, ids); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				return st, fmt.Errorf("step %d, %s: sent %v, reference %v", step, what, got, want)
			}
		}
		lo := int64(math.MaxInt64) // the slowest confirmed signaler
		for _, s := range r.signaled {
			if s >= 0 && s != waitOnly {
				lo = min(lo, s)
			}
		}
		if lo != math.MaxInt64 && rng.IntN(catchUp) == 0 { // or the release is still on its way
			released = max(released, lo-1)
		}
		if got, want := t.outstanding(released+1), r.outstanding(released+1); !slices.Equal(got, want) {
			return st, fmt.Errorf("step %d, after %s: outstanding at %d %v, reference %v", step, what, released+1, got, want)
		}
		// The index is nil, or it holds exactly the members at their slots.
		if !slices.Equal(t.ids, r.ids) || t.index != nil && len(t.index) != len(t.ids) || t.signaled != nil && len(t.signaled) != len(t.ids) {
			return st, fmt.Errorf("step %d, after %s: members %v (%d indexed, %d signaled), reference %v",
				step, what, t.ids, len(t.index), len(t.signaled), r.ids)
		}
		for i, id := range r.ids {
			slot, ok := t.index[id]
			if got := t.at(int32(i)); got != r.signaled[i] || t.index != nil && (!ok || slot != int32(i)) {
				return st, fmt.Errorf("step %d, after %s: member %d at slot %d (indexed at %d, %v) signaled %d, reference %d",
					step, what, id, i, slot, ok, got, r.signaled[i])
			}
		}
	}
	return st, nil
}

// programStats counts what the table programs exercised.
type programStats struct {
	sharedArrivals int // arrivals that found the members agreeing
	wholeLeaves    int // leaves naming an agreeing table whole, in order
	wholeBanked    int // of those, members with signals banked past the release
	wholeParked    int // of those, a table whose join is unconfirmed
}

// TestMemberTableMatchesPerMemberReference holds the table with its shared
// form against the per-member table it replaced, over 500 seeded programs
// of 60 steps: joins of fresh ids with a duplicate or an existing member
// mixed in, JoinOKs in all three modes and in any order, arrivals in
// registration order (with a duplicate, an unknown id, or not), reversed,
// as a subset, naming parked members, stale and banked up to three epochs
// ahead, and leaves of a subset, of everyone in registration order (the
// whole-table leave, on agreeing tables with and without banked signals
// and on parked ones) and of unconfirmed members. After every step the
// two agree on the arrive list, the leave census and banked signals,
// Outstanding, every member's slot and signaled, and the index, if there
// is one, on every slot. A failing program is reported and the rest still
// run.
func TestMemberTableMatchesPerMemberReference(t *testing.T) {
	const programs, steps = 500, 60
	var sum programStats
	failed := 0
	for seed := uint64(1); seed <= programs; seed++ {
		st, err := tableProgram(seed, steps)
		sum.sharedArrivals += st.sharedArrivals
		sum.wholeLeaves += st.wholeLeaves
		sum.wholeBanked += st.wholeBanked
		sum.wholeParked += st.wholeParked
		if err != nil {
			failed++
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	t.Logf("%d programs (%d failed): %d arrivals found the members agreeing; %d leaves took an agreeing table whole (%d with banked signals, %d parked)",
		programs, failed, sum.sharedArrivals, sum.wholeLeaves, sum.wholeBanked, sum.wholeParked)
	if sum.sharedArrivals < 1000 || sum.wholeLeaves < 200 || sum.wholeBanked < 20 || sum.wholeParked < 100 {
		t.Fatalf("the programs exercised the shared form too little: %+v", sum)
	}
}

// TestMemberTableStaysSharedForWholeBatches runs one connection of 125,000
// members through a JoinBatch, its JoinOK and three epochs on SimNet, each
// arrival naming the whole batch in registration order — the SPMD
// pattern — and checks the table still holds one shared value and no
// per-member slice, and that such an arrival allocates nothing: its list
// equals the last one sent, which the table hands out again.
func TestMemberTableStaysSharedForWholeBatches(t *testing.T) {
	const n, g, epochs = 125_000, uint32(0), 3
	nw := transport.NewSimNet(transport.SimConfig{Latency: 2})
	cfg := SimConfig(2, 0)
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)*7 + 3
	}
	var arrive func(e int64)
	arrive = func(e int64) {
		if e < epochs {
			c.ArriveBatch(g, e, ids)
			c.WhenReleased(g, e, func(rel int64) { arrive(rel + 1) })
		}
	}
	c.JoinBatch(g, core.SignalWait, ids, arrive)
	if _, ok := nw.Run(1_000_000, func() bool { return c.Released(g) >= epochs-1 }); !ok {
		t.Fatalf("released through %d, want %d", c.Released(g), epochs-1)
	}
	tab := &c.group(g).members
	if tab.signaled != nil || tab.shared != epochs || len(tab.ids) != n {
		t.Fatalf("after %d whole-batch epochs: %d members, %d signaled values, shared %d; want %d members sharing %d",
			epochs, len(tab.ids), len(tab.signaled), tab.shared, n, epochs)
	}
	e := int64(epochs - 1)
	allocs := testing.AllocsPerRun(20, func() {
		e++
		if got := tab.arrive(e, ids); len(got) != 1 || got[0] != n {
			t.Fatalf("arrive at %d sent %v, want [%d]", e, got, n)
		}
	})
	if allocs != 0 || tab.signaled != nil {
		t.Fatalf("a whole-batch arrival made %v allocations (want 0); signaled %d values", allocs, len(tab.signaled))
	}
}

// TestWholeBatchTableHoldsNoIndex runs one connection of 125,000 members
// through a JoinBatch, its JoinOK, three whole-batch epochs and a
// whole-batch LeaveBatch on SimNet, and checks that the table never builds
// its id index, that the leave empties it and drains the group, and that
// the JoinBatch allocates at most 20 bytes per member: the table's copy of
// the ids and the transient set that checks them for repeats.
func TestWholeBatchTableHoldsNoIndex(t *testing.T) {
	const n, g, epochs = 125_000, uint32(0), 3
	nw := transport.NewSimNet(transport.SimConfig{Latency: 2})
	cfg := SimConfig(2, 0)
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)*7 + 3
	}
	tab := &c.group(g).members
	noIndex := func(when string) {
		if tab.index != nil {
			t.Errorf("%s: the table built an index of %d ids", when, len(tab.index))
		}
	}
	var arrive func(e int64)
	arrive = func(e int64) {
		noIndex(fmt.Sprintf("at release %d", e-1))
		if e < epochs {
			c.ArriveBatch(g, e, ids)
			c.WhenReleased(g, e, func(rel int64) { arrive(rel + 1) })
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.JoinBatch(g, core.SignalWait, ids, arrive)
	runtime.ReadMemStats(&after)
	noIndex("after JoinBatch")
	perMember := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("JoinBatch of %d members allocated %.1f B per member", n, perMember)
	if perMember > 20 {
		t.Errorf("JoinBatch allocated %.1f B per member, want at most 20", perMember)
	}
	if _, ok := nw.Run(1_000_000, func() bool { return c.Released(g) >= epochs-1 }); !ok {
		t.Fatalf("released through %d, want %d", c.Released(g), epochs-1)
	}
	c.LeaveBatch(g, ids)
	noIndex("after LeaveBatch")
	if len(tab.ids) != 0 {
		t.Fatalf("after a whole-batch LeaveBatch the table holds %d members", len(tab.ids))
	}
	if _, ok := nw.Run(1_000_000, func() bool { return c.Released(g) >= DrainEpoch }); !ok {
		t.Fatalf("the group did not drain after the whole batch left: released %d", c.Released(g))
	}
}

// TestDistinctMatchesMapReference holds distinct against a map over 2,000
// seeded batches of 0–300 ids, drawn from ranges small enough to force
// repeats and mixed with 0 and math.MaxUint64.
func TestDistinctMatchesMapReference(t *testing.T) {
	rng := des.NewRNG(1)
	var repeated int
	for b := range 2000 {
		n := rng.IntN(301)
		base, span := rng.Next(), int64(1)<<40
		if rng.IntN(2) == 0 {
			span = 1 + rng.IntN(2*n+2) // narrow: repeats likely
		}
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = base + uint64(rng.IntN(span)) // may wrap past math.MaxUint64
		}
		for _, edge := range []uint64{0, math.MaxUint64} {
			for range max(0, rng.IntN(4)-1) { // none, once, or twice
				if n > 0 {
					ids[rng.IntN(n)] = edge
				}
			}
		}
		seen, want := make(map[uint64]bool, n), true
		for _, id := range ids {
			want = want && !seen[id]
			seen[id] = true
		}
		if !want {
			repeated++
		}
		if got := distinct(ids); got != want {
			t.Errorf("batch %d: distinct(%v) = %v, want %v", b, ids, got, want)
		}
	}
	t.Logf("2000 batches, %d with a repeated id", repeated)
	if repeated < 400 || repeated > 1600 {
		t.Fatalf("%d of 2000 batches repeat an id; the generator should make both outcomes common", repeated)
	}
}

// BenchmarkJoinBatch is the table's cost per id of one JoinBatch of
// 125,000 distinct random ids into a fresh table: the repeat check and
// the copy.
func BenchmarkJoinBatch(b *testing.B) {
	const n = 125_000
	rng := des.NewRNG(1)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = rng.Next()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		var t memberTable
		if got := t.join(1, ids); got != n {
			b.Fatalf("joined %d of %d ids", got, n)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/id")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/n, "B/id")
}

// BenchmarkMemberTableArrive is the caller's cost per id of one arrival
// naming all 125,000 members: in registration order, the compare; reversed,
// the walk through the index.
func BenchmarkMemberTableArrive(b *testing.B) {
	const n = 125_000
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)*7 + 3
	}
	reversed := slices.Clone(ids)
	slices.Reverse(reversed)
	for _, bc := range []struct {
		name  string
		batch []uint64
	}{{"in-order", ids}, {"reversed", reversed}} {
		b.Run(bc.name, func(b *testing.B) {
			var t memberTable
			t.join(1, ids)
			t.unpark(1, 0)
			b.ResetTimer()
			for e := range int64(b.N) {
				t.arrive(e, bc.batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/id")
		})
	}
}

// TestSameIDsMatchesSlicesEqual holds the chunked compare against
// slices.Equal at lengths around the 64-id chunk: equal lists, one id
// changed inside a chunk or in the tail, and lists one id apart in
// length.
func TestSameIDsMatchesSlicesEqual(t *testing.T) {
	for _, n := range []int{0, 63, 64, 65, 129} {
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(i)*7 + 3
		}
		check := func(what string, b []uint64) {
			if got, want := sameIDs(a, b), slices.Equal(a, b); got != want {
				t.Errorf("n=%d, %s: sameIDs = %v, slices.Equal = %v", n, what, got, want)
			}
		}
		check("equal", slices.Clone(a))
		check("one id longer", append(slices.Clone(a), 1))
		if n > 0 {
			check("one id shorter", a[:n-1])
		}
		for _, at := range []int{0, 31, 63, 64, 100, n - 1} {
			if at < 0 || at >= n {
				continue
			}
			b := slices.Clone(a)
			b[at]++
			where := "the tail"
			if at < n/64*64 {
				where = "a chunk"
			}
			check(fmt.Sprintf("id %d changed, in %s", at, where), b)
		}
	}
}

// TestLargestCountMessageFitsOneDatagram encodes the longest arrive, leave
// and combine the protocol can build — one list entry per epoch up to
// phase.MaxAhead past the release, a leave's two census counts besides —
// with every count and header field at its widest, and checks each fits
// one IPv4 UDP datagram. A message that does not is dropped by the socket
// on every retransmission, and its group stalls.
func TestLargestCountMessageFitsOneDatagram(t *testing.T) {
	const maxUDPPayload = 65_507
	for _, tc := range []struct {
		kind transport.Kind
		n    int
	}{
		{transport.KindArrive, phase.MaxAhead},
		{transport.KindLeave, phase.MaxAhead + 2},
		{transport.KindCombine, phase.MaxAhead},
	} {
		m := transport.Message{
			Kind: tc.kind, Mode: math.MaxUint8, From: math.MaxUint32, To: math.MaxUint32,
			Group: math.MaxUint32, Client: math.MaxUint64, Epoch: math.MinInt64, Seq: math.MaxUint64,
			List: make([]uint64, tc.n),
		}
		for i := range m.List {
			m.List[i] = math.MaxUint64
		}
		if size := len(m.Encode()); size > maxUDPPayload {
			t.Errorf("%v with %d counts encodes to %d bytes, over the %d a UDP datagram carries", tc.kind, tc.n, size, maxUDPPayload)
		}
	}
}

// TestSharedConnConcurrentCallers drives one Conn on ChanNet from 4
// goroutines at once, each owning 2 groups: JoinBatch, then epochs of
// ArriveBatch and WhenReleased, then LeaveBatch. Their sends meet in the
// Conn's one send queue and their releases in one onMessage, so under
// -race this is the check on both handoffs. Every group must reach its
// last epoch with no release below the awaited epoch, and drain once its
// members leave. In the second row 2 more goroutines create 256 groups
// each meanwhile, dense and sparse ids in turn, and call Released,
// ArriveBatch and WhenReleased on them, so the lock-free lookup of the
// callers' groups runs beside every publish of a new dense table.
func TestSharedConnConcurrentCallers(t *testing.T) {
	for _, row := range []struct {
		name     string
		creators int
	}{{"callers", 0}, {"callers beside group creation", 2}} {
		t.Run(row.name, func(t *testing.T) { sharedConnCallers(t, row.creators) })
	}
}

func sharedConnCallers(t *testing.T, creators int) {
	const callers, groupsEach, per, epochs, created = 4, 2, 16, 30, 256
	nw := transport.NewChanNet(0)
	defer nw.Close()
	cfg := RealtimeConfig()
	cfg.FlushDelay = int64(50 * time.Microsecond)
	svc, err := Start(nw, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(nw, transport.ConnAddrBase, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, callers+creators)
	// createdID is creator w's i-th group: dense and sparse ids in turn,
	// none of them a caller's.
	createdID := func(w, i int) uint32 {
		g := uint32(1000 + w*created + i)
		if i%2 == 1 {
			g += transport.DenseBound
		}
		return g
	}
	for w := range creators {
		go func() {
			errs <- func() error {
				for i := range created {
					g := createdID(w, i)
					if rel := c.Released(g); rel != -1 {
						return fmt.Errorf("new group %d: released %d", g, rel)
					}
					c.ArriveBatch(g, 0, []uint64{1}) // no members: passed over
					c.WhenReleased(g, 0, func(rel int64) { errs <- fmt.Errorf("new group %d: released %d", g, rel) })
				}
				return nil
			}()
		}()
	}
	for w := range callers {
		go func() {
			errs <- func() error {
				ids := make([]uint64, per)
				for k := range ids {
					ids[k] = uint64(w*per + k)
				}
				groups := []uint32{uint32(w * groupsEach), uint32(w*groupsEach + 1)}
				for _, g := range groups {
					c.JoinBatch(g, core.SignalWait, ids, nil)
				}
				for _, g := range groups {
					c.AwaitJoined(g)
				}
				for e := range int64(epochs) {
					for _, g := range groups {
						c.ArriveBatch(g, e, ids)
					}
					for _, g := range groups {
						if rel := c.WaitReleased(g, e); rel < e {
							return fmt.Errorf("group %d: released %d, awaited %d", g, rel, e)
						}
					}
				}
				for _, g := range groups {
					c.LeaveBatch(g, ids)
				}
				for _, g := range groups {
					if rel := c.WaitReleased(g, DrainEpoch); rel != DrainEpoch {
						return fmt.Errorf("group %d: released %d after its members left, want the drain", g, rel)
					}
				}
				return nil
			}()
		}()
	}
	for range callers + creators {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("callers timed out")
		}
	}
	for g := range uint32(callers * groupsEach) {
		if rel := c.Released(g); rel != DrainEpoch {
			t.Errorf("group %d: released %d, want the drain", g, rel)
		}
	}
	dense := *c.dense.Load()
	for w := range creators {
		for i := range created {
			g := createdID(w, i)
			if rel := c.Released(g); rel != -1 {
				t.Errorf("new group %d: released %d", g, rel)
			}
			if g < transport.DenseBound && dense[g] == nil {
				t.Errorf("new group %d is missing from the published dense groups", g)
			}
		}
	}
}
