package cluster

import (
	"testing"
	"unsafe"
)

// TestHotRecordLayout holds the records every dispatched event touches
// to their sizes: Message 48 → 24 bytes, fevent 72 → 32 (so each queue
// arena slot 80 → 40), node 304 → 240, and, asserted in
// internal/transport (TestWindowRecordLayout), the window's pending
// record 96 → 64. Together they read 0.80 of the parent's sim-cluster
// sync_us in the pair median over 10 alternating pairs (2 cores), won
// all 10, took cluster.ns_per_event 0.76–0.82 and heap_peak_mb 19.7 →
// 15.7 MB; at 256 nodes, where everything fits in cache, they read
// 0.97. A field added to one of these records has to argue with those
// numbers.
func TestHotRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Message) = %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(fevent{}); got > 32 {
		t.Errorf("unsafe.Sizeof(fevent) = %d bytes, want at most 32", got)
	}
	if got := unsafe.Sizeof(node{}); got > 240 {
		t.Errorf("unsafe.Sizeof(node) = %d bytes, want at most 240", got)
	}
}
