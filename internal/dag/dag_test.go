package dag

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"fuzzybarrier/internal/ir"
)

// fig4Block models the spirit of Figure 4's non-barrier candidate: address
// computations feeding marked loads, combined and stored back.
func fig4Block() ir.Block {
	T := ir.Temp
	return ir.Block{
		{Op: ir.Add, Dst: T(0), A: ir.Var("j"), B: ir.Const(1)}, // 0: T0 = j+1
		{Op: ir.Mul, Dst: T(1), A: ir.Const(4), B: ir.Var("i")}, // 1: T1 = 4*i
		{Op: ir.Add, Dst: T(2), A: T(1), B: ir.Base("P")},       // 2: T2 = T1+P
		{Op: ir.Add, Dst: T(3), A: T(2), B: T(0)},               // 3: T3 = T2+T0 (addr)
		{Op: ir.Load, Dst: T(4), A: T(3), Marked: true},         // 4: T4 = [T3]
		{Op: ir.Sub, Dst: T(5), A: ir.Var("j"), B: ir.Const(1)}, // 5: T5 = j-1
		{Op: ir.Add, Dst: T(6), A: T(2), B: T(5)},               // 6: T6 = T2+T5
		{Op: ir.Load, Dst: T(7), A: T(6), Marked: true},         // 7: T7 = [T6]
		{Op: ir.Add, Dst: T(8), A: T(4), B: T(7)},               // 8: T8 = T4+T7
		{Op: ir.Div, Dst: T(9), A: T(8), B: ir.Const(4)},        // 9: T9 = T8/4
		{Op: ir.Add, Dst: T(10), A: T(2), B: ir.Var("j")},       // 10: T10 = T2+j (store addr)
		{Op: ir.Store, Dst: T(10), B: T(9), Marked: true},       // 11: [T10] = T9
	}
}

func TestBuildEdges(t *testing.T) {
	g, err := Build(fig4Block())
	if err != nil {
		t.Fatal(err)
	}
	// Flow edges into the first load: address chain 0,1,2,3 -> 4.
	hasEdge := func(from, to int) bool {
		for _, e := range g.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{3, 4}, {2, 3}, {0, 3}, {1, 2}, {4, 8}, {7, 8}, {8, 9}, {9, 11}, {10, 11}} {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("missing dependence edge %d -> %d", e[0], e[1])
		}
	}
	// Loads commute: no edge between the two loads.
	if hasEdge(4, 7) || hasEdge(7, 4) {
		t.Error("load-load edge present; loads must commute")
	}
}

func TestMemoryOrdering(t *testing.T) {
	T := ir.Temp
	b := ir.Block{
		{Op: ir.Load, Dst: T(0), A: ir.Var("a")},  // 0
		{Op: ir.Store, Dst: ir.Var("a"), B: T(0)}, // 1: store after load
		{Op: ir.Load, Dst: T(1), A: ir.Var("a")},  // 2: load after store
		{Op: ir.Store, Dst: ir.Var("a"), B: T(1)}, // 3: store after store
	}
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	// All four orderings must exist as edges; 0->1 and 2->3 also carry a
	// flow dependence (the stored value), and the graph deduplicates by
	// pair, so only 1->2 and 1->3 are necessarily Memory-kind.
	all := make(map[[2]int]EdgeKind)
	for _, e := range g.Edges {
		all[[2]int{e.From, e.To}] = e.Kind
	}
	for _, k := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}} {
		if _, ok := all[k]; !ok {
			t.Errorf("missing ordering edge %v", k)
		}
	}
	if all[[2]int{1, 2}] != Memory {
		t.Errorf("1->2 kind = %v, want memory", all[[2]int{1, 2}])
	}
	if all[[2]int{1, 3}] != Memory {
		t.Errorf("1->3 kind = %v, want memory", all[[2]int{1, 3}])
	}
}

func TestAntiAndOutputEdges(t *testing.T) {
	T := ir.Temp
	b := ir.Block{
		{Op: ir.Assign, Dst: ir.Var("x"), A: ir.Const(1)},       // 0: def x
		{Op: ir.Add, Dst: T(0), A: ir.Var("x"), B: ir.Const(2)}, // 1: use x
		{Op: ir.Assign, Dst: ir.Var("x"), A: ir.Const(3)},       // 2: redef x
	}
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[[2]int]EdgeKind)
	for _, e := range g.Edges {
		kinds[[2]int{e.From, e.To}] = e.Kind
	}
	if kinds[[2]int{0, 1}] != Flow {
		t.Errorf("0->1 = %v, want flow", kinds[[2]int{0, 1}])
	}
	if kinds[[2]int{1, 2}] != Anti {
		t.Errorf("1->2 = %v, want anti", kinds[[2]int{1, 2}])
	}
	if kinds[[2]int{0, 2}] != Output {
		t.Errorf("0->2 = %v, want output", kinds[[2]int{0, 2}])
	}
}

func TestThreePhaseFig4Shape(t *testing.T) {
	split, err := ThreePhase(fig4Block())
	if err != nil {
		t.Fatal(err)
	}
	pre, nb, post := len(split.Pre), len(split.NonBarrier), len(split.Post)
	if pre+nb+post != len(fig4Block()) {
		t.Fatalf("sizes %d+%d+%d don't partition %d", pre, nb, post, len(fig4Block()))
	}
	// All address computations (0,1,2,3,5,6,10) move to pre; the marked
	// loads/stores plus their combiners (8, 9) stay: nb = 5.
	if pre != 7 {
		t.Errorf("pre = %d, want 7:\n%s", pre, split.Pre)
	}
	if nb != 5 {
		t.Errorf("non-barrier = %d, want 5 (2 loads + add + div + store):\n%s", nb, split.NonBarrier)
	}
	if post != 0 {
		t.Errorf("post = %d, want 0", post)
	}
	// Marked instructions must all be in NonBarrier.
	for _, in := range split.Pre {
		if in.Marked {
			t.Errorf("marked instruction in pre: %v", in)
		}
	}
	for _, in := range split.Post {
		if in.Marked {
			t.Errorf("marked instruction in post: %v", in)
		}
	}
}

func TestThreePhasePostRegion(t *testing.T) {
	// An unmarked instruction depending on a marked one lands in post.
	T := ir.Temp
	b := ir.Block{
		{Op: ir.Load, Dst: T(0), A: ir.Var("a"), Marked: true}, // 0
		{Op: ir.Add, Dst: T(1), A: T(0), B: ir.Const(1)},       // 1: unmarked, depends on marked
		{Op: ir.Assign, Dst: ir.Var("x"), A: T(1)},             // 2: ditto
	}
	split, err := ThreePhase(b)
	if err != nil {
		t.Fatal(err)
	}
	pre, nb, post := len(split.Pre), len(split.NonBarrier), len(split.Post)
	if pre != 0 || nb != 1 || post != 2 {
		t.Errorf("sizes = %d/%d/%d, want 0/1/2", pre, nb, post)
	}
}

func TestThreePhaseRejectsControl(t *testing.T) {
	b := ir.Block{{Op: ir.Goto, Target: "x"}}
	if _, err := ThreePhase(b); err == nil {
		t.Error("control instruction accepted")
	}
}

func TestThreePhaseEmptyAndUnmarked(t *testing.T) {
	// Empty block.
	split, err := ThreePhase(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Pre)+len(split.NonBarrier)+len(split.Post) != 0 {
		t.Error("empty block should split to nothing")
	}
	// No marked instructions: everything moves to pre.
	b := ir.Block{
		{Op: ir.Assign, Dst: ir.Var("x"), A: ir.Const(1)},
		{Op: ir.Add, Dst: ir.Temp(0), A: ir.Var("x"), B: ir.Const(2)},
	}
	split, err = ThreePhase(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Pre) != 2 || len(split.NonBarrier) != 0 {
		t.Errorf("unmarked block: pre=%d nb=%d, want 2/0", len(split.Pre), len(split.NonBarrier))
	}
}

func TestDotOutput(t *testing.T) {
	g, err := Build(fig4Block())
	if err != nil {
		t.Fatal(err)
	}
	dot := g.Dot("fig4")
	for _, want := range []string{"digraph", "doubleoctagon", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g, err := Build(fig4Block())
	if err != nil {
		t.Fatal(err)
	}
	good := make([]int, len(g.Block))
	for i := range good {
		good[i] = i
	}
	if err := Verify(g, good); err != nil {
		t.Fatalf("identity order rejected: %v", err)
	}
	bad := append([]int(nil), good...)
	bad[3], bad[4] = bad[4], bad[3] // load before its address
	if err := Verify(g, bad); err == nil {
		t.Error("violated order accepted")
	}
}

// genBlock builds a random straight-line block from a byte string; the
// construction guarantees definitions exist before uses by only using
// previously defined temps (or constants).
func genBlock(data []byte) ir.Block {
	var b ir.Block
	defined := 0
	for i, d := range data {
		if len(b) >= 30 {
			break
		}
		pick := func(k int) ir.Operand {
			if defined == 0 {
				return ir.Const(int64(k))
			}
			return ir.Temp(int(d+byte(k)) % defined)
		}
		switch d % 5 {
		case 0:
			b = append(b, ir.Instr{Op: ir.Assign, Dst: ir.Temp(defined), A: ir.Const(int64(d))})
			defined++
		case 1:
			b = append(b, ir.Instr{Op: ir.Add, Dst: ir.Temp(defined), A: pick(1), B: pick(2)})
			defined++
		case 2:
			b = append(b, ir.Instr{Op: ir.Load, Dst: ir.Temp(defined), A: pick(1), Marked: i%3 == 0})
			defined++
		case 3:
			if defined > 0 {
				b = append(b, ir.Instr{Op: ir.Store, Dst: pick(1), B: pick(2), Marked: i%2 == 0})
			}
		case 4:
			b = append(b, ir.Instr{Op: ir.Mul, Dst: ir.Temp(defined), A: pick(3), B: ir.Const(int64(d) + 1)})
			defined++
		}
	}
	return b
}

// TestThreePhaseProperty: for random blocks, the three-phase split (a)
// partitions the block, (b) is a legal schedule of the dependence DAG,
// and (c) keeps every marked instruction in the non-barrier region.
func TestThreePhaseProperty(t *testing.T) {
	f := func(data []byte) bool {
		b := genBlock(data)
		split, err := ThreePhase(b)
		if err != nil {
			return false
		}
		pre, nb, post := len(split.Pre), len(split.NonBarrier), len(split.Post)
		if pre+nb+post != len(b) {
			return false
		}
		for _, in := range split.Pre {
			if in.Marked {
				return false
			}
		}
		for _, in := range split.Post {
			if in.Marked {
				return false
			}
		}
		// Check schedule legality: map scheduled instructions back to
		// their original indices (instructions may be duplicated in
		// value, so match greedily by equality).
		g, err := Build(b)
		if err != nil {
			return false
		}
		sched := append(append(append(ir.Block{}, split.Pre...), split.NonBarrier...), split.Post...)
		used := make([]bool, len(b))
		order := make([]int, 0, len(b))
		for _, in := range sched {
			found := -1
			for j := range b {
				if !used[j] && instrEq(b[j], in) {
					found = j
					break
				}
			}
			if found < 0 {
				return false
			}
			used[found] = true
			order = append(order, found)
		}
		// Greedy matching can mis-assign duplicates; accept either exact
		// verification or a retry with the reversed preference.
		return Verify(g, order) == nil || verifyWithBacktrack(g, b, sched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func instrEq(a, b ir.Instr) bool {
	return a.Op == b.Op && a.Dst == b.Dst && a.A == b.A && a.B == b.B && a.Marked == b.Marked
}

// verifyWithBacktrack matches duplicates last-first as a fallback.
func verifyWithBacktrack(g *Graph, b ir.Block, sched ir.Block) bool {
	used := make([]bool, len(b))
	order := make([]int, 0, len(b))
	for _, in := range sched {
		found := -1
		for j := len(b) - 1; j >= 0; j-- {
			if !used[j] && instrEq(b[j], in) {
				found = j
				break
			}
		}
		if found < 0 {
			return false
		}
		used[found] = true
		order = append(order, found)
	}
	return Verify(g, order) == nil
}

// Verify checks that order is a legal schedule of g's block: every edge
// must point forward in the given permutation.
func Verify(g *Graph, order []int) error {
	pos := make(map[int]int, len(order))
	for idx, node := range order {
		pos[node] = idx
	}
	if len(pos) != len(g.Block) {
		return fmt.Errorf("dag: order has %d distinct nodes, want %d", len(pos), len(g.Block))
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("dag: %s edge %d->%d violated (positions %d >= %d)",
				e.Kind, e.From, e.To, pos[e.From], pos[e.To])
		}
	}
	return nil
}
