package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuzzybarrier/internal/barrierd"
	"fuzzybarrier/internal/transport"
)

// tapNet wraps a transport.Network from outside: it hands the inner
// network a Handler that observes each delivery before and after the
// real one runs, and returns endpoints whose Send, After and Do are
// observed the same way. It sees every datagram's kind, group, epoch,
// size, send time and handler time without a line changed in
// internal/. It changes no delay and no order, so a SimNet run is the
// same run with or without it (bench_test.go pins that).
//
// Every callback of one endpoint runs on that endpoint's dispatch
// context (the transports serialize them, and barrierd only sends from
// there), so a tapEndpoint's counters need no lock; they are read after
// the network is closed.
type tapNet struct {
	inner transport.Network
	clock func() int64 // milestone clock: ns since the trial began, or SimNet ticks
	ring  barrierd.Ring
	// queueLog records first sends and first deliveries of reliable
	// messages so queue waits can be matched up afterwards. Real-time
	// transports only: on SimNet the wait is the configured latency.
	queueLog bool
	// open gates the counting: the driver opens the tap for the timed
	// phase, so joins at set-up and leaves at teardown are not counted.
	// Duplicate detection runs regardless, or it would lose track.
	open atomic.Bool

	mu  sync.Mutex
	eps []*tapEndpoint
}

func newTapNet(inner transport.Network, shards int, clock func() int64, queueLog bool) *tapNet {
	return &tapNet{inner: inner, clock: clock, ring: barrierd.Ring{Shards: shards}, queueLog: queueLog}
}

// mark is a per-(group, epoch) milestone a tapEndpoint can see. With
// the driver's T0 (epoch start), T1 (last ArriveBatch returned) and T6
// (last WhenReleased callback fired) they cut an epoch into segNames.
type mark int

const (
	// markIngressDone (T2): last KindArrive handler finished at an
	// ingress shard that is not the group's home.
	markIngressDone mark = iota
	// markHomeStart (T3): last KindArrive/KindCombine handler started at
	// Ring.Home(g) — the home has everything once this one is applied.
	markHomeStart
	// markReleaseSent (T4): first KindRelease sent by the home shard.
	markReleaseSent
	// markConnDeliver (T5): last connection's first KindRelease delivery.
	markConnDeliver
	numMarks
)

type epochKey struct {
	g uint32
	e int64
}

const numKinds = int(transport.KindRelease) + 1

// codecSample bounds the messages an endpoint keeps for the codec
// timing.
const codecSample = 128

type queueRec struct {
	peer transport.Addr
	seq  uint64
	at   int64
}

// seqWindow tells a first delivery from a duplicate, per sending peer,
// the way transport.Reliable does: a floor plus the seqs seen beyond it.
type seqWindow struct {
	floor uint64
	ahead map[uint64]struct{}
}

func (w *seqWindow) first(seq uint64) bool {
	if seq <= w.floor {
		return false
	}
	if _, dup := w.ahead[seq]; dup {
		return false
	}
	if seq != w.floor+1 {
		w.ahead[seq] = struct{}{}
		return true
	}
	w.floor++
	for {
		if _, ok := w.ahead[w.floor+1]; !ok {
			return true
		}
		delete(w.ahead, w.floor+1)
		w.floor++
	}
}

type tapEndpoint struct {
	transport.Endpoint
	net   *tapNet
	addr  transport.Addr
	shard int // shard index; -1 for a client connection

	sent        [numKinds]int64 // datagrams handed to the network, by kind
	ids         int64           // client ids carried by arrive + combine sends
	wireBytes   int64           // Σ len(Encode()) of every send
	firstSends  int64           // reliable messages sent for the first time
	retransmits int64           // reliable sends of a seq already sent
	dups        int64           // deliveries of a (from, seq) already delivered
	busy        [numKinds]int64 // handler wall ns, by kind
	busyOther   int64           // wall ns in After and Do closures

	maxSent map[transport.Addr]uint64
	seen    map[transport.Addr]*seqWindow
	marks   [numMarks]map[epochKey]int64

	sendLog, recvLog []queueRec
	sample           []transport.Message
	buf              []byte
}

// Attach implements transport.Network.
func (t *tapNet) Attach(a transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	te := &tapEndpoint{
		net: t, addr: a, shard: -1,
		maxSent: make(map[transport.Addr]uint64),
		seen:    make(map[transport.Addr]*seqWindow),
	}
	if a < transport.ConnAddrBase {
		te.shard = int(a) - int(barrierd.ShardAddr(0))
	}
	for i := range te.marks {
		te.marks[i] = make(map[epochKey]int64)
	}
	ep, err := t.inner.Attach(a, func(m transport.Message) { te.deliver(m, h) })
	if err != nil {
		return nil, err
	}
	te.Endpoint = ep
	t.mu.Lock()
	t.eps = append(t.eps, te)
	t.mu.Unlock()
	return te, nil
}

// Close implements transport.Network.
func (t *tapNet) Close() error { return t.inner.Close() }

func (te *tapEndpoint) setMax(m mark, k epochKey, at int64) {
	if cur, ok := te.marks[m][k]; !ok || at > cur {
		te.marks[m][k] = at
	}
}

func (te *tapEndpoint) setFirst(m mark, k epochKey, at int64) {
	if _, ok := te.marks[m][k]; !ok {
		te.marks[m][k] = at
	}
}

// deliver is the Handler the inner network calls.
func (te *tapEndpoint) deliver(m transport.Message, h transport.Handler) {
	first := true
	if m.Seq != 0 {
		w := te.seen[m.From]
		if w == nil {
			w = &seqWindow{ahead: make(map[uint64]struct{})}
			te.seen[m.From] = w
		}
		first = w.first(m.Seq)
	}
	if !te.net.open.Load() {
		h(m)
		return
	}
	start := te.net.clock()
	if !first {
		te.dups++
	} else if m.Seq != 0 && te.net.queueLog {
		te.recvLog = append(te.recvLog, queueRec{m.From, m.Seq, start})
	}
	k := epochKey{m.Group, m.Epoch}
	atHome := te.shard >= 0 && te.net.ring.Home(m.Group) == te.shard
	arrival := m.Kind == transport.KindArrive || m.Kind == transport.KindCombine
	switch {
	case !first:
	case atHome && arrival:
		te.setMax(markHomeStart, k, start)
	case te.shard < 0 && m.Kind == transport.KindRelease && m.Epoch < barrierd.DrainEpoch:
		te.setFirst(markConnDeliver, k, start)
	}
	w0 := time.Now()
	h(m)
	te.busy[m.Kind] += time.Since(w0).Nanoseconds()
	if first && te.shard >= 0 && !atHome && m.Kind == transport.KindArrive {
		te.setMax(markIngressDone, k, te.net.clock())
	}
}

// Send implements transport.Endpoint.
func (te *tapEndpoint) Send(to transport.Addr, m transport.Message) {
	retransmit := m.Seq != 0 && m.Seq <= te.maxSent[to]
	if m.Seq > te.maxSent[to] {
		te.maxSent[to] = m.Seq
	}
	if !te.net.open.Load() {
		te.Endpoint.Send(to, m)
		return
	}
	m.From, m.To = te.addr, to // what the inner endpoint will put on the wire
	te.sent[m.Kind]++
	te.buf = m.AppendTo(te.buf[:0])
	te.wireBytes += int64(len(te.buf))
	if m.Kind == transport.KindArrive || m.Kind == transport.KindCombine {
		te.ids += int64(len(m.List))
	}
	switch {
	case retransmit:
		te.retransmits++
	case m.Seq != 0:
		te.firstSends++
		if te.net.queueLog {
			te.sendLog = append(te.sendLog, queueRec{to, m.Seq, te.net.clock()})
		}
	}
	if m.Kind == transport.KindRelease && m.Epoch < barrierd.DrainEpoch &&
		te.shard >= 0 && te.net.ring.Home(m.Group) == te.shard {
		te.setFirst(markReleaseSent, epochKey{m.Group, m.Epoch}, te.net.clock())
	}
	if len(te.sample) < codecSample {
		te.sample = append(te.sample, m) // senders never reuse a List
	}
	te.Endpoint.Send(to, m)
}

// timed runs a dispatch-context closure and charges it to busyOther.
func (te *tapEndpoint) timed(fn func()) func() {
	return func() {
		if !te.net.open.Load() {
			fn()
			return
		}
		w0 := time.Now()
		fn()
		te.busyOther += time.Since(w0).Nanoseconds()
	}
}

// After implements transport.Endpoint.
func (te *tapEndpoint) After(delay int64, fn func()) { te.Endpoint.After(delay, te.timed(fn)) }

// Do implements transport.Endpoint.
func (te *tapEndpoint) Do(fn func()) { te.Endpoint.Do(te.timed(fn)) }

// tapTotals is everything the endpoints counted, summed.
type tapTotals struct {
	sent        [numKinds]int64
	ids         int64
	wireBytes   int64
	firstSends  int64
	retransmits int64
	dups        int64
	shardBusy   [numKinds]int64 // handler ns by kind, shards only
	shardTotal  []int64         // all dispatch-context ns, per shard
}

func (t *tapNet) totals() tapTotals {
	var tt tapTotals
	for _, te := range t.eps {
		for k := range te.sent {
			tt.sent[k] += te.sent[k]
		}
		tt.ids += te.ids
		tt.wireBytes += te.wireBytes
		tt.firstSends += te.firstSends
		tt.retransmits += te.retransmits
		tt.dups += te.dups
		if te.shard < 0 {
			continue
		}
		total := te.busyOther
		for k, ns := range te.busy {
			tt.shardBusy[k] += ns
			total += ns
		}
		tt.shardTotal = append(tt.shardTotal, total)
	}
	return tt
}

// milestone combines one mark across endpoints: the first release sent
// is a minimum, the others are "last" events.
func (t *tapNet) milestone(m mark, k epochKey) (at int64, ok bool) {
	for _, te := range t.eps {
		v, has := te.marks[m][k]
		switch {
		case !has:
		case !ok, m == markReleaseSent && v < at, m != markReleaseSent && v > at:
			at, ok = v, true
		}
	}
	return at, ok
}

// queueWaits matches each reliable message's first Send to the start of
// its first handler run, keyed by (from, to, seq), in clock units.
func (t *tapNet) queueWaits() []float64 {
	type key struct {
		from, to transport.Addr
		seq      uint64
	}
	sentAt := make(map[key]int64)
	for _, te := range t.eps {
		for _, s := range te.sendLog {
			sentAt[key{te.addr, s.peer, s.seq}] = s.at
		}
	}
	var waits []float64
	for _, te := range t.eps {
		for _, r := range te.recvLog {
			if at, ok := sentAt[key{r.peer, te.addr, r.seq}]; ok && r.at >= at {
				waits = append(waits, float64(r.at-at))
			}
		}
	}
	return waits
}

// epochRec is the driver's view of one (group, epoch).
type epochRec struct {
	key        epochKey
	t0, t1, t6 int64
}

// connTimes are one connection's per-epoch timestamps for one group:
// ArriveBatch entered and returned, release observed.
type connTimes struct{ start, ret, rel []int64 }

// foldEpochs folds the connections' timestamps into one record per
// (group, epoch) and runs the check every service workload shares:
// nobody observed epoch e's release before every connection had
// entered its ArriveBatch for e. An epoch some connection never saw
// released counts as failed.
func foldEpochs(groups int, epochs int64, conns int, at func(conn, g int) connTimes) (recs []epochRec, failed int64, problems []string) {
	for g := 0; g < groups; g++ {
		for e := int64(0); e < epochs; e++ {
			rec := epochRec{key: epochKey{uint32(g), e}, t0: math.MaxInt64}
			firstRel, lastStart, complete := int64(math.MaxInt64), int64(0), true
			for c := 0; c < conns && complete; c++ {
				tm := at(c, g)
				if complete = int64(len(tm.rel)) > e; !complete {
					break
				}
				rec.t0 = min(rec.t0, tm.start[e])
				rec.t1 = max(rec.t1, tm.ret[e])
				rec.t6 = max(rec.t6, tm.rel[e])
				firstRel = min(firstRel, tm.rel[e])
				lastStart = max(lastStart, tm.start[e])
			}
			switch {
			case !complete:
				failed++
			case firstRel < lastStart:
				failed++
				problems = append(problems, fmt.Sprintf("group %d epoch %d released before every connection arrived", g, e))
			default:
				recs = append(recs, rec)
			}
		}
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d group-epochs failed", failed, int64(groups)*epochs))
	}
	return recs, failed, problems
}

// segments cuts every epoch at the tap's milestones. Each milestone is
// clamped to the running maximum and to T6, so the six segments are
// non-negative and sum to T6-T0 exactly; sums returns Σ per segment and
// Σ latency, in clock units, and ok reports whether they telescope.
func (t *tapNet) segments(recs []epochRec, spans *spanLog) (sums [6]int64, total int64, ok bool) {
	for _, rec := range recs {
		ts := [7]int64{0: rec.t0, 1: rec.t1, 6: rec.t6}
		for i, m := range []mark{markIngressDone, markHomeStart, markReleaseSent, markConnDeliver} {
			at, seen := t.milestone(m, rec.key)
			if !seen {
				at = 0 // clamps to the previous milestone
			}
			ts[2+i] = at
		}
		for i := 1; i < 6; i++ {
			ts[i] = min(max(ts[i], ts[i-1]), rec.t6)
		}
		for i := range sums {
			sums[i] += ts[i+1] - ts[i]
		}
		total += rec.t6 - rec.t0
		if spans != nil && !spans.full() {
			lane, id := epochLanes(rec.key)
			spans.add(span{Name: "epoch", ID: id, Lane: lane, Start: ts[0], End: ts[6]})
			for i, n := range segNames {
				spans.add(span{Name: n, ID: id, Parent: "epoch", Lane: lane, Start: ts[i], End: ts[i+1]})
			}
		}
	}
	var sum int64
	for _, s := range sums {
		sum += s
	}
	return sums, total, sum == total
}

// codecCost times Encode+Decode over the messages the endpoints kept.
func (t *tapNet) codecCost() (nsPerMsg, allocsPerMsg float64) {
	var msgs []transport.Message
	for _, te := range t.eps {
		msgs = append(msgs, te.sample...)
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			if _, err := transport.Decode(m.Encode()); err != nil {
				return 0, 0 // pinned by FuzzMessageCodec; not this benchmark's check
			}
		}
	}
	d := time.Since(begin)
	runtime.ReadMemStats(&after)
	n := float64(rounds * len(msgs))
	return float64(d.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}
