package core

import (
	"errors"
	"fmt"
	"sync"
)

// This file implements the multiple-barrier discipline of Section 5.
//
// When streams are created dynamically, different subsets of streams that
// do not know of each other's existence must use logically distinct
// barriers, identified by tags. Creation of every stream requires
// allocation of at most one barrier — the one it shares with its parent —
// so a system with N processors (at most N streams) needs at most N−1
// barriers. Streams that synchronize repeatedly reuse their shared
// barrier, and disjoint subsets of a group sharing a barrier synchronize
// independently by manipulating masks.

// ErrNoBarriers is returned when the allocator's tag space is exhausted.
var ErrNoBarriers = errors.New("core: no free barrier tags")

// Allocator hands out logical barrier tags. Capacity is 2^bits − 1 tags
// (tag 0 is reserved to mean "not participating"), bounded additionally by
// maxLive, the N−1 bound of Section 5.
type Allocator struct {
	mu      sync.Mutex
	free    []Tag
	next    Tag
	limit   Tag
	live    int
	maxLive int
	peak    int
}

// NewAllocator creates an allocator for a system of nprocs processors
// using tagBits-bit tags. maxLive is capped at nprocs−1 (with a floor of
// one barrier for degenerate single-processor systems).
func NewAllocator(nprocs, tagBits int) *Allocator {
	if tagBits < 1 || tagBits > 63 {
		panic(fmt.Sprintf("core: tagBits %d out of range [1,63]", tagBits))
	}
	maxLive := nprocs - 1
	if maxLive < 1 {
		maxLive = 1
	}
	return &Allocator{next: 1, limit: (1 << uint(tagBits)) - 1, maxLive: maxLive}
}

// Alloc reserves a fresh tag and returns a fuzzy barrier for n
// participants carrying that tag.
func (a *Allocator) Alloc(n int) (*FuzzyBarrier, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.live >= a.maxLive {
		return nil, fmt.Errorf("%w: %d barriers live, bound is N-1 = %d", ErrNoBarriers, a.live, a.maxLive)
	}
	var tag Tag
	switch {
	case len(a.free) > 0:
		tag = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	case a.next <= a.limit:
		tag = a.next
		a.next++
	default:
		return nil, fmt.Errorf("%w: tag space of %d exhausted", ErrNoBarriers, a.limit)
	}
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
	return NewTaggedFuzzyBarrier(n, tag), nil
}

// Release returns a barrier's tag to the allocator. The caller must ensure
// no stream still uses the barrier.
func (a *Allocator) Release(b *FuzzyBarrier) {
	if b == nil || b.Tag() == TagNone {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, b.Tag())
	a.live--
}

// Peak returns the maximum number of simultaneously live barriers — the
// quantity Section 5 bounds by N−1.
func (a *Allocator) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Stream is one dynamically created instruction stream in a SpawnTree.
// Each stream (except the root) shares one barrier with its parent,
// allocated when the stream was spawned — Figure 6's pattern, where
// barriers are "essentially being used to merge streams".
type Stream struct {
	ID     int
	parent *Stream
	shared *FuzzyBarrier // barrier shared with parent; nil for the root
	tree   *SpawnTree
}

// Barrier returns the barrier this stream shares with its parent (nil for
// the root stream).
func (s *Stream) Barrier() *FuzzyBarrier { return s.shared }

// SyncWithChild performs a point synchronization with child on the
// barrier they share; the child pairs it with child.Barrier().Await().
func (s *Stream) SyncWithChild(child *Stream) error {
	if child.parent != s {
		return fmt.Errorf("core: stream %d is not a child of stream %d", child.ID, s.ID)
	}
	child.shared.Await()
	return nil
}

// SpawnTree tracks dynamically created streams and their barriers,
// enforcing the Section 5 invariant: the first stream needs no barrier and
// every subsequent stream allocates at most one.
type SpawnTree struct {
	mu     sync.Mutex
	alloc  *Allocator
	nextID int
}

// NewSpawnTree creates a spawn tree for a system of nprocs processors with
// tagBits-bit tags, and returns the tree together with its root stream.
func NewSpawnTree(nprocs, tagBits int) (*SpawnTree, *Stream) {
	t := &SpawnTree{alloc: NewAllocator(nprocs, tagBits), nextID: 1}
	root := &Stream{ID: 0, tree: t}
	return t, root
}

// Spawn creates a child stream of parent, allocating the one barrier the
// child shares with its parent.
func (t *SpawnTree) Spawn(parent *Stream) (*Stream, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := t.alloc.Alloc(2)
	if err != nil {
		return nil, err
	}
	s := &Stream{ID: t.nextID, parent: parent, shared: b, tree: t}
	t.nextID++
	return s, nil
}

// Merge performs the final synchronization between child and its parent
// and releases the child's barrier — the stream-merging use of barriers in
// Figure 6. The child goroutine must concurrently call
// child.Barrier().Await().
func (t *SpawnTree) Merge(child *Stream) error {
	if child.shared == nil {
		return errors.New("core: cannot merge the root stream")
	}
	child.shared.Await()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.alloc.Release(child.shared)
	child.shared = nil
	return nil
}

// PeakBarriers returns the maximum number of simultaneously live barriers
// the tree has used.
func (t *SpawnTree) PeakBarriers() int { return t.alloc.Peak() }
