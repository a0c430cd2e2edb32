package barrierd

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"fuzzybarrier/internal/check"
)

// countsWalk is the exhaustive model of epochCounts against a map from
// epoch to count, a check.Model: from an empty ring at floor 0, every
// sequence of depth operations. An operation adds ±1 to the epoch at an
// offset from the floor in {0, 1, len−1, len, 2·len+1}, len the ring's
// current size, or drops every epoch through one of {floor−1, floor,
// floor+2, floor+len+1, DrainEpoch}. After every step each epoch in
// [floor−2, floor+3·len] must read what the reference holds.
type countsWalk struct{ depth int }

// countsOp adds d to epoch k, or with drop set drops every epoch
// through k.
type countsOp struct {
	drop bool
	k, d int64
}

// countsState is one vertex of the walk. The ring is never changed once
// it is a state's: a successor replays ops into a fresh one.
type countsState struct {
	ops []countsOp
	c   *epochCounts
	ref map[int64]int64
}

func (op countsOp) apply(c *epochCounts, ref map[int64]int64) {
	if op.drop {
		c.drop(op.k)
		maps.DeleteFunc(ref, func(k, _ int64) bool { return k <= op.k })
		return
	}
	c.add(op.k, op.d)
	if ref[op.k] += op.d; ref[op.k] == 0 {
		delete(ref, op.k)
	}
}

func (w countsWalk) Initial() (*countsState, error) {
	return &countsState{c: new(epochCounts), ref: map[int64]int64{}}, nil
}

func (w countsWalk) Done(s *countsState) bool { return len(s.ops) == w.depth }

func (w countsWalk) Enabled(s *countsState, buf []countsOp) []countsOp {
	f, n := s.c.floor, int64(len(s.c.n))
	offs := []int64{0, 1, n - 1, n, 2*n + 1}
	for i, off := range offs {
		if off >= 0 && !slices.Contains(offs[:i], off) {
			buf = append(buf, countsOp{k: f + off, d: 1}, countsOp{k: f + off, d: -1})
		}
	}
	drops := []int64{f - 1, f, f + 2, f + n + 1, DrainEpoch}
	for i, e := range drops {
		if !slices.Contains(drops[:i], e) {
			buf = append(buf, countsOp{drop: true, k: e})
		}
	}
	return buf
}

func (w countsWalk) Apply(s *countsState, a countsOp) (*countsState, *check.Violation) {
	ns := &countsState{ops: append(slices.Clip(s.ops), a), c: new(epochCounts), ref: maps.Clone(s.ref)}
	for _, op := range s.ops {
		op.apply(ns.c, map[int64]int64{})
	}
	a.apply(ns.c, ns.ref)
	for k := ns.c.floor - 2; k <= ns.c.floor+3*int64(len(ns.c.n)); k++ {
		if got, want := ns.c.at(k), ns.ref[k]; got != want {
			return nil, &check.Violation{Property: "reads-reference", Detail: fmt.Sprintf(
				"epoch %d reads %d, the reference %d; ring floor %d slots %v", k, got, want, ns.c.floor, ns.c.n)}
		}
	}
	return ns, nil
}

// Key encodes the ring as it sits, the reference and the steps left.
func (w countsWalk) Key(s *countsState, buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(len(s.ops)))
	buf = binary.AppendVarint(buf, s.c.floor)
	for _, n := range s.c.n {
		buf = binary.AppendVarint(buf, n)
	}
	buf = append(buf, '|')
	keys := make([]int64, 0, len(s.ref))
	for k := range s.ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = binary.AppendVarint(binary.AppendVarint(buf, k), s.ref[k])
	}
	return buf
}

func (w countsWalk) Stuck(s *countsState) string { return fmt.Sprintf("ring %+v", *s.c) }

func (w countsWalk) Describe(a countsOp) string {
	if a.drop {
		return fmt.Sprintf("drop through epoch %d", a.k)
	}
	return fmt.Sprintf("add %+d to epoch %d", a.d, a.k)
}

// TestEpochCountsWalk walks every sequence of six operations on one
// epochCounts and holds every read in and around its window to the map
// reference.
func TestEpochCountsWalk(t *testing.T) {
	res, err := check.Explore(countsWalk{depth: 6}, 1<<22, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	t.Logf("%d states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
}
