package transport

import "slices"

// DenseBound is how many ids from each dense base a Table indexes
// directly: at most 4,096 pointers, 32 KB, per slice.
const DenseBound = 1 << 12

// Table maps ids to records on a message path without hashing the ids a
// deployment actually uses. Ids below DenseBound (shards, group ids) and
// in [ConnAddrBase, ConnAddrBase+DenseBound) (connections) index a slice
// each, grown only as far as the largest id put; any other id — a
// hostile UDP source, an odd group id — falls back to a map. It also
// keeps every record in the order it was put, for walks that must be
// deterministic. The zero Table is empty; records are never removed.
type Table[K ~uint32, V any] struct {
	lo, hi []*V
	far    map[K]*V
	all    []*V // every record, in the order Put added them
}

// Get returns k's record, nil if none was put.
func (t *Table[K, V]) Get(k K) *V {
	if k < DenseBound {
		if int(k) < len(t.lo) {
			return t.lo[k]
		}
		return nil
	}
	if d := k - K(ConnAddrBase); d < DenseBound {
		if int(d) < len(t.hi) {
			return t.hi[d]
		}
		return nil
	}
	return t.far[k]
}

// Put records v under k, which holds no record yet.
func (t *Table[K, V]) Put(k K, v *V) {
	t.all = append(t.all, v)
	switch d := k - K(ConnAddrBase); {
	case k < DenseBound:
		t.lo = place(t.lo, int(k), v)
	case d < DenseBound:
		t.hi = place(t.hi, int(d), v)
	default:
		if t.far == nil {
			t.far = make(map[K]*V)
		}
		t.far[k] = v
	}
}

// All returns every record in the order it was put.
func (t *Table[K, V]) All() []*V { return t.all }

// place stores v at s[i], growing s to reach it.
func place[V any](s []*V, i int, v *V) []*V {
	if i >= len(s) {
		s = slices.Grow(s, i+1-len(s))[:i+1]
	}
	s[i] = v
	return s
}
