package transport

import "testing"

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
	if n := w.rtt.Samples(); n != 0 {
		t.Fatalf("ack of a retransmitted message added %d RTT samples", n)
	}
	w.Track(2, w.Next(), 20, 3)
	w.Ack(2, 24)
	if n := w.rtt.Samples(); n != 1 {
		t.Fatalf("ack of a first transmission added %d RTT samples, want 1", n)
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
