package core

import (
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"
)

// TestSplitmix64Vectors pins the mixer to the reference splitmix64
// sequence (seeds 0 and 1): the hash both barriers route through must
// not drift silently.
func TestSplitmix64Vectors(t *testing.T) {
	if got := splitmix64(0); got != 0xE220A8397B1DCDAF {
		t.Errorf("splitmix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if got := splitmix64(1); got != 0x910A2DEC89025CC1 {
		t.Errorf("splitmix64(1) = %#x, want 0x910A2DEC89025CC1", got)
	}
}

// TestShardHintDistribution spreads many live goroutines (distinct
// stacks, the hash's seed) over bucket counts matching the two
// reductions the barriers use — low bits for HierBarrier shards, high
// bits for leaf routing — and checks the collision distribution: no
// bucket may swallow a large multiple of its fair share, and most
// buckets must be hit. Stack bases are size-class aligned, so this is
// exactly the regularity splitmix64 has to break; the bounds are loose
// (4x fair share) because the test asserts hash quality, not perfect
// uniformity.
//
// Each goroutine records the raw address of a probe in its own frame
// beside the ShardHint it takes there, after the wait that grows its
// stack, and the test runs with the garbage collector off, since a
// collection may shrink (copy) stacks. A stack copied after its probe
// frees the old stack for a later goroutine to reuse at the same
// address; under -race, with its larger frames, that once left fewer
// than half the hints distinct. Distinct hints must equal distinct raw
// addresses — the mixer loses nothing — and the buckets are filled with
// the distinct hints only. A failure logs every address beside its hint.
func TestShardHintDistribution(t *testing.T) {
	const goroutines = 512
	const buckets = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	raws, hints := make([]uintptr, goroutines), make([]uint64, goroutines)
	var ready, release, probed, done sync.WaitGroup
	ready.Add(goroutines)
	release.Add(1)
	probed.Add(goroutines)
	done.Add(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ready.Done()
			release.Wait() // the stack has grown to what a wait needs
			var probe byte
			raws[id], hints[id] = uintptr(unsafe.Pointer(&probe)), ShardHint()
			probed.Done()
			done.Wait() // hold the stack live until every peer has hashed
		}(g)
	}
	ready.Wait()
	release.Done()
	probed.Wait()
	done.Done()
	wg.Wait()

	distinctRaw := make(map[uintptr]bool, goroutines)
	distinct := make(map[uint64]bool, goroutines)
	for id, h := range hints {
		distinctRaw[raws[id]] = true
		distinct[h] = true
	}
	if len(distinct) != len(distinctRaw) {
		t.Errorf("%d distinct hints from %d distinct probe addresses: the mixer merged inputs", len(distinct), len(distinctRaw))
	}
	// Concurrently live goroutines occupy disjoint stacks; near-total
	// collapse of the hash values would mean the mixer is discarding the
	// address bits that vary.
	if len(distinct) < goroutines/2 {
		t.Errorf("only %d distinct hints from %d goroutines", len(distinct), goroutines)
	}
	if t.Failed() {
		for id := range hints {
			t.Logf("goroutine %d: probe %#x hint %#x", id, raws[id], hints[id])
		}
	}

	for _, sel := range []struct {
		name   string
		bucket func(uint64) int
	}{
		{"low-bits-shard", func(h uint64) int { return int(h % buckets) }},
		{"high-bits-leaf", func(h uint64) int { return int((h >> 32) % buckets) }},
	} {
		counts := make([]int, buckets)
		for h := range distinct {
			counts[sel.bucket(h)]++
		}
		fair := len(distinct) / buckets
		hit := 0
		for b, c := range counts {
			if c > 0 {
				hit++
			}
			if c > 4*fair {
				t.Errorf("%s: bucket %d got %d of %d distinct hints (fair share %d)", sel.name, b, c, len(distinct), fair)
			}
		}
		if hit < buckets/2 {
			t.Errorf("%s: only %d of %d buckets hit", sel.name, hit, buckets)
		}
		t.Logf("%s: %d distinct hints, bucket counts %v", sel.name, len(distinct), counts)
	}
}
