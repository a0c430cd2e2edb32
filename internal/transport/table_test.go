package transport

import (
	"math"
	"testing"
)

// TestTableSparseIDsFallBackToTheMap puts a record at each edge of the
// two dense spans and past them, in an order that grows nothing toward a
// sparse id: every record reads back, the ids between them read nil, the
// dense slices stay within DenseBound and All keeps the order of Put.
func TestTableSparseIDsFallBackToTheMap(t *testing.T) {
	ids := []Addr{
		math.MaxUint32, DenseBound, ConnAddrBase + DenseBound, ConnAddrBase - 1,
		0, 3, DenseBound - 1, ConnAddrBase, ConnAddrBase + DenseBound - 1,
	}
	var tab Table[Addr, int]
	for i, a := range ids {
		tab.Put(a, &i)
		if len(tab.lo) > DenseBound || len(tab.hi) > DenseBound {
			t.Fatalf("after id %d: dense slices %d and %d long, bound %d", a, len(tab.lo), len(tab.hi), DenseBound)
		}
		if i == 3 && (len(tab.lo) != 0 || len(tab.hi) != 0) {
			t.Fatalf("sparse ids alone grew the dense slices to %d and %d", len(tab.lo), len(tab.hi))
		}
	}
	for i, a := range ids {
		if v := tab.Get(a); v == nil || *v != i {
			t.Errorf("id %d: got %v, want record %d", a, v, i)
		}
		if v := tab.All()[i]; *v != i {
			t.Errorf("All()[%d] is record %d", i, *v)
		}
	}
	for _, a := range []Addr{1, 2, DenseBound + 1, ConnAddrBase + 1, ConnAddrBase + DenseBound + 1, math.MaxUint32 - 1} {
		if v := tab.Get(a); v != nil {
			t.Errorf("id %d was never put, reads record %d", a, *v)
		}
	}
	if len(tab.far) != 4 {
		t.Errorf("%d records in the map, want the 4 sparse ids", len(tab.far))
	}
}
