package core

import (
	"errors"
	"sync"
	"testing"
)

func TestAllocatorBound(t *testing.T) {
	a := NewAllocator(4, 8) // max 3 live barriers
	var bars []*FuzzyBarrier
	for i := 0; i < 3; i++ {
		b, err := a.Alloc(2)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		bars = append(bars, b)
	}
	if _, err := a.Alloc(2); !errors.Is(err, ErrNoBarriers) {
		t.Fatalf("4th alloc err = %v, want ErrNoBarriers", err)
	}
	a.Release(bars[0])
	if _, err := a.Alloc(2); err != nil {
		t.Fatalf("alloc after release: %v", err)
	}
	if a.Peak() != 3 {
		t.Errorf("peak = %d, want 3", a.Peak())
	}
}

func TestAllocatorDistinctTags(t *testing.T) {
	a := NewAllocator(8, 8)
	seen := make(map[Tag]bool)
	for i := 0; i < 7; i++ {
		b, err := a.Alloc(2)
		if err != nil {
			t.Fatal(err)
		}
		if b.Tag() == TagNone {
			t.Fatal("allocated barrier has TagNone")
		}
		if seen[b.Tag()] {
			t.Fatalf("duplicate live tag %d", b.Tag())
		}
		seen[b.Tag()] = true
	}
}

func TestAllocatorTagReuse(t *testing.T) {
	a := NewAllocator(2, 8) // one live barrier at a time
	b1, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	tag := b1.Tag()
	a.Release(b1)
	b2, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Tag() != tag {
		t.Errorf("freed tag not reused: got %d, want %d", b2.Tag(), tag)
	}
}

func TestAllocatorTagSpaceExhaustion(t *testing.T) {
	// 1-bit tags: only tag 1 exists.
	a := NewAllocator(64, 1)
	if _, err := a.Alloc(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(2); !errors.Is(err, ErrNoBarriers) {
		t.Fatalf("err = %v, want ErrNoBarriers (tag space)", err)
	}
}

func TestReleaseNilAndUntagged(t *testing.T) {
	a := NewAllocator(4, 8)
	a.Release(nil)                // must not panic
	a.Release(NewFuzzyBarrier(2)) // untagged: ignored
	if a.live != 0 {
		t.Errorf("live = %d, want 0", a.live)
	}
}

func TestSpawnTreeFigure6(t *testing.T) {
	// Figure 6: P1 spawns S1 (P2), P1 spawns S3 (P3); merges in reverse.
	tree, root := NewSpawnTree(3, 4)
	s1, err := tree.Spawn(root)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := tree.Spawn(root)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Barrier().Tag() == s3.Barrier().Tag() {
		t.Error("sibling streams must use logically distinct barriers")
	}

	var wg sync.WaitGroup
	for _, s := range []*Stream{s1, s3} {
		wg.Add(1)
		go func(s *Stream) {
			defer wg.Done()
			s.Barrier().Await() // SyncWithChild's partner
			s.Barrier().Await() // merge rendezvous
		}(s)
	}
	if err := root.SyncWithChild(s1); err != nil {
		t.Fatal(err)
	}
	if err := root.SyncWithChild(s3); err != nil {
		t.Fatal(err)
	}
	if err := tree.Merge(s1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Merge(s3); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if tree.PeakBarriers() != 2 {
		t.Errorf("peak barriers = %d, want 2 (N-1 for 3 streams)", tree.PeakBarriers())
	}
}

func TestSpawnTreeEnforcesBound(t *testing.T) {
	tree, root := NewSpawnTree(3, 4) // at most 2 barriers
	if _, err := tree.Spawn(root); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Spawn(root); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Spawn(root); !errors.Is(err, ErrNoBarriers) {
		t.Fatalf("err = %v, want ErrNoBarriers (N-1 bound)", err)
	}
}

func TestMergeRootFails(t *testing.T) {
	tree, root := NewSpawnTree(2, 4)
	if err := tree.Merge(root); err == nil {
		t.Error("merging the root must fail")
	}
}

func TestSyncWithWrongChildFails(t *testing.T) {
	tree, root := NewSpawnTree(4, 4)
	c1, err := tree.Spawn(root)
	if err != nil {
		t.Fatal(err)
	}
	grand, err := tree.Spawn(c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.SyncWithChild(grand); err == nil {
		t.Error("grandchild is not a direct child; sync must fail")
	}
}
