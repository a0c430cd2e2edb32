package transport

import (
	"slices"
	"testing"
	"unsafe"
)

// newTestWindow returns a Window of ints with RTO bounds [initRTO, maxRTO].
func newTestWindow(initRTO, maxRTO int64) *Window[int] {
	w := &Window[int]{}
	w.Init(initRTO, maxRTO)
	return w
}

// TestWindowDueSkipsStaleEntries: Due drops the deadline of an acked
// message and the superseded deadline of a re-armed one, and returns
// the earliest live deadline — while Head, which both hosts arm from,
// still sees the stale entries until Due prunes them.
func TestWindowDueSkipsStaleEntries(t *testing.T) {
	w := newTestWindow(10, 80)
	for seq := uint64(1); seq <= 3; seq++ {
		w.Track(int(seq), w.Next(), int64(seq), seq) // deadlines 11, 12, 13
	}
	if !w.Ack(1, 5) {
		t.Fatal("ack of live seq 1 reported duplicate")
	}
	// Re-arm seq 2 later without removing its first deadline, as a
	// superseding arm leaves it.
	w.arm(w.slot(2), 20, 4) // deadline 30, armseq 4

	if e, ok := w.Head(); !ok || e != (RetxEntry{Deadline: 11, Armseq: 1, Seq: 1}) {
		t.Fatalf("Head = %+v, %v; want the acked seq 1's entry {11 1 1}", e, ok)
	}
	e, ok := w.Due()
	if !ok || e != (RetxEntry{Deadline: 13, Armseq: 3, Seq: 3}) {
		t.Fatalf("Due = %+v, %v; want seq 3's live entry {13 3 3}", e, ok)
	}
	if h, _ := w.Head(); h != e {
		t.Fatalf("after Due, Head = %+v, want the live entry %+v", h, e)
	}
	w.Retry(13, 5)
	if e, ok := w.Due(); !ok || e != (RetxEntry{Deadline: 30, Armseq: 4, Seq: 2}) {
		t.Fatalf("Due = %+v, %v; want seq 2's re-armed entry {30 4 2}", e, ok)
	}
	w.Ack(2, 31)
	w.Ack(3, 31)
	if e, ok := w.Due(); ok {
		t.Fatalf("Due = %+v with every message acked", e)
	}
	if w.Live() != 0 {
		t.Fatalf("Live = %d, want 0", w.Live())
	}
}

// TestWindowRetryBacksOff: each Retry doubles the RTO up to the cap,
// re-arms at now + RTO, and reports the try count.
func TestWindowRetryBacksOff(t *testing.T) {
	w := newTestWindow(10, 35)
	w.Track(7, w.Next(), 0, 1)
	now := int64(0)
	for i, want := range []int64{20, 35, 35} {
		e, ok := w.Due()
		if !ok {
			t.Fatalf("retry %d: nothing due", i)
		}
		now = e.Deadline
		m, tries, rto := w.Retry(now, uint64(i+2))
		if m != 7 || tries != i+2 || rto != want {
			t.Fatalf("retry %d = (%d, %d, %d), want (7, %d, %d)", i, m, tries, rto, i+2, want)
		}
		if e, _ := w.Head(); e.Deadline != now+want || e.Armseq != uint64(i+2) {
			t.Fatalf("retry %d re-armed %+v, want deadline %d armseq %d", i, e, now+want, i+2)
		}
	}
}

// TestWindowKarnRule: an ack after a retry adds no RTT sample; an ack of
// a first transmission adds one.
func TestWindowKarnRule(t *testing.T) {
	w := newTestWindow(10, 80)
	w.Track(1, w.Next(), 0, 1)
	w.Due()
	w.Retry(10, 2)
	w.Ack(1, 12)
	if rto := w.rtt.RTO(); rto != 0 {
		t.Fatalf("ack of a retransmitted message added an RTT sample: RTO %v, want 0", rto)
	}
	w.Track(2, w.Next(), 20, 3)
	w.Ack(2, 24)
	if rto := w.rtt.RTO(); rto != 4+4*2 {
		t.Fatalf("ack of a first transmission: RTO %v, want 12 (one sample of 4 ticks)", rto)
	}
}

// TestWindowOutOfOrderAcksAcrossGrowth: 100 sends in flight at once
// grow the ring past its initial 8 slots; every one stays findable and
// acks exactly once, in any order.
func TestWindowOutOfOrderAcksAcrossGrowth(t *testing.T) {
	w := newTestWindow(10, 80)
	const n = 100
	for i := 0; i < n; i++ {
		seq := w.Next()
		w.Track(int(seq), seq, int64(i), seq)
	}
	if w.Live() != n {
		t.Fatalf("Live = %d, want %d", w.Live(), n)
	}
	// Odd seqs descending, then even seqs ascending.
	var order []uint64
	for s := n - 1; s >= 1; s -= 2 {
		order = append(order, uint64(s))
	}
	for s := 2; s <= n; s += 2 {
		order = append(order, uint64(s))
	}
	for k, seq := range order {
		if p := w.slot(seq); p == nil || p.msg != int(seq) {
			t.Fatalf("seq %d not findable before its ack", seq)
		}
		if !w.Ack(seq, int64(n+k)) {
			t.Fatalf("ack of live seq %d reported duplicate", seq)
		}
		if w.Ack(seq, int64(n+k)) {
			t.Fatalf("second ack of seq %d reported live", seq)
		}
	}
	if w.Live() != 0 {
		t.Fatalf("Live = %d after every ack, want 0", w.Live())
	}
	if e, ok := w.Due(); ok {
		t.Fatalf("Due = %+v with every message acked", e)
	}
}

// TestWindowRecordLayout: the pending record of a 24-byte message (the
// size of cluster.Message) is one 64-byte cache line; it was 96 bytes
// with a separate in-use flag and an int try count. Together with the
// cluster's smaller Message, fevent and node (TestHotRecordLayout in
// internal/cluster) this is what took sim-cluster's sync_us down; a
// field added here has to argue with those numbers.
func TestWindowRecordLayout(t *testing.T) {
	type msg24 struct{ a, b, c uint64 }
	if got := unsafe.Sizeof(pending[msg24]{}); got != 64 {
		t.Errorf("unsafe.Sizeof(pending[24-byte message]) = %d bytes, want 64", got)
	}
}

// TestWindowCarvedRingsGrowApart: two windows whose first rings are
// carved side by side from one slab grow past 8 and then 16 in-flight
// sends each, interleaved, with acks out of order. Neither ever holds
// the other's records, every live send stays findable, every acked one
// is gone, and an ack for a seq whose slot seq + len(ring) has reused
// returns false and leaves the new record live.
func TestWindowCarvedRingsGrowApart(t *testing.T) {
	var ws [2]Window[int]
	InitWindows(2, 10, 80, func(i int) *Window[int] { return &ws[i] })
	stride := unsafe.Sizeof(ws[0].slots[0])
	if cap(ws[0].slots) != 8 || uintptr(unsafe.Pointer(&ws[1].slots[0]))-uintptr(unsafe.Pointer(&ws[0].slots[0])) != 8*stride {
		t.Fatal("InitWindows did not carve the two 8-slot rings side by side")
	}
	// A message is 2·seq + its window's index, so its owner is msg % 2.
	live := [2]map[uint64]int{{}, {}}
	acked := [2][]uint64{}
	now := int64(0)
	check := func(when string) {
		t.Helper()
		for i := range ws {
			w := &ws[i]
			for j, p := range w.slots {
				if p.tries != 0 && p.msg%2 != i {
					t.Fatalf("%s: window %d slot %d holds window %d's message %d", when, i, j, p.msg%2, p.msg)
				}
			}
			if w.Live() != len(live[i]) {
				t.Fatalf("%s: window %d Live = %d, want %d", when, i, w.Live(), len(live[i]))
			}
			for seq, m := range live[i] {
				if p := w.slot(seq); p == nil || p.msg != m {
					t.Fatalf("%s: window %d lost live seq %d", when, i, seq)
				}
			}
			for _, seq := range acked[i] {
				if w.slot(seq) != nil {
					t.Fatalf("%s: window %d still finds acked seq %d", when, i, seq)
				}
			}
		}
	}
	send := func(i int) uint64 {
		now++
		seq := ws[i].Next()
		ws[i].Track(int(2*seq)+i, seq, now, seq)
		live[i][seq] = int(2*seq) + i
		return seq
	}
	ack := func(i int, seq uint64) {
		now++
		if !ws[i].Ack(seq, now) {
			t.Fatalf("window %d: ack of live seq %d reported duplicate", i, seq)
		}
		delete(live[i], seq)
		acked[i] = append(acked[i], seq)
	}
	for step, target := 0, 12; target <= 20; target += 8 { // past 8, then past 16 in flight
		for len(live[0]) < target || len(live[1]) < target {
			for i := range ws {
				send(i)
				check("send")
				if step%3 == 2 { // an out-of-order ack: never the oldest, never the newest
					seqs := sortedSeqs(live[i])
					ack(i, seqs[1+step%(len(seqs)-2)])
					check("ack")
				}
			}
			step++
		}
	}
	for i := range ws {
		if len(ws[i].slots) < 32 {
			t.Fatalf("window %d ring has %d slots with over 16 in flight", i, len(ws[i].slots))
		}
		for _, seq := range sortedSeqs(live[i]) {
			ack(i, seq)
		}
	}
	check("drain")

	// Slot reuse: with at most one send in flight the ring cannot grow,
	// so seq + len(ring) lands in seq's slot.
	w := &ws[0]
	old := send(0)
	ack(0, old)
	for seq := send(0); seq < old+uint64(len(w.slots)); seq = send(0) {
		ack(0, seq)
	}
	reused := old + uint64(len(w.slots))
	if w.slot(old) != nil || w.slots[old&w.mask].seq != reused {
		t.Fatalf("seq %d's slot not reused by seq %d", old, reused)
	}
	if w.Ack(old, now) {
		t.Fatalf("ack of seq %d, whose slot seq %d reused, reported live", old, reused)
	}
	check("stale ack")
}

// sortedSeqs returns the keys of live in ascending order.
func sortedSeqs(live map[uint64]int) []uint64 {
	seqs := make([]uint64, 0, len(live))
	for seq := range live {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}
