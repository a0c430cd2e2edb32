package core

import "testing"

func TestTaggedBarrier(t *testing.T) {
	b := NewTaggedFuzzyBarrier(2, 7)
	if b.Tag() != 7 {
		t.Errorf("tag = %d, want 7", b.Tag())
	}
	if b.N() != 2 {
		t.Errorf("n = %d, want 2", b.N())
	}
}
