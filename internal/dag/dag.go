// Package dag builds the data-dependence DAG over straight-line
// three-address code and implements the Section 4 code-reordering
// algorithm that moves instructions out of the non-barrier region to make
// barrier regions as large as possible.
package dag

import (
	"fmt"
	"strings"

	"fuzzybarrier/internal/ir"
)

// EdgeKind classifies a dependence edge.
type EdgeKind int

// Dependence kinds.
const (
	Flow   EdgeKind = iota // read after write
	Anti                   // write after read
	Output                 // write after write
	Memory                 // load/store ordering (conservative)
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Memory:
		return "memory"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Edge is a dependence from Block[From] to Block[To] (From must execute
// first).
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Graph is the dependence DAG of one straight-line block.
type Graph struct {
	Block ir.Block
	Edges []Edge
	preds [][]int
	succs [][]int
}

// operand identity key for dependence tracking.
func opKey(o ir.Operand) (string, bool) {
	switch o.Kind {
	case ir.KindTemp:
		return fmt.Sprintf("T%d", o.ID), true
	case ir.KindVar:
		return "v:" + o.Name, true
	}
	return "", false
}

// Build constructs the dependence DAG. Memory dependences are
// conservative: every store conflicts with every other load or store
// (loads commute with loads). A trailing control instruction depends on
// everything before it and is pinned last.
func Build(b ir.Block) (*Graph, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Block: b}
	n := len(b)
	g.preds = make([][]int, n)
	g.succs = make([][]int, n)
	seen := make(map[[2]int]bool)
	addEdge := func(from, to int, k EdgeKind) {
		if from == to || from < 0 {
			return
		}
		key := [2]int{from, to}
		if seen[key] {
			return
		}
		seen[key] = true
		g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: k})
		g.preds[to] = append(g.preds[to], from)
		g.succs[from] = append(g.succs[from], to)
	}

	lastDef := make(map[string]int)    // key -> last defining instr
	lastUses := make(map[string][]int) // key -> uses since last def
	lastStore := -1
	var loadsSinceStore []int

	for i, in := range b {
		if in.IsControl() {
			// Pinned last: depends on every prior instruction.
			for j := 0; j < i; j++ {
				addEdge(j, i, Flow)
			}
			continue
		}
		// Uses: flow edges from last def.
		for _, u := range in.Uses() {
			if k, ok := opKey(u); ok {
				if d, ok := lastDef[k]; ok {
					addEdge(d, i, Flow)
				}
				lastUses[k] = append(lastUses[k], i)
			}
		}
		// Memory ordering.
		if in.ReadsMemory() {
			if lastStore >= 0 {
				addEdge(lastStore, i, Memory)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
		if in.WritesMemory() {
			if lastStore >= 0 {
				addEdge(lastStore, i, Memory)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i, Memory)
			}
			loadsSinceStore = loadsSinceStore[:0]
			lastStore = i
		}
		// Defs: output edge from previous def, anti edges from previous
		// uses.
		if d, ok := in.Defs(); ok {
			if k, ok := opKey(d); ok {
				if prev, ok := lastDef[k]; ok {
					addEdge(prev, i, Output)
				}
				for _, u := range lastUses[k] {
					addEdge(u, i, Anti)
				}
				lastDef[k] = i
				lastUses[k] = nil
			}
		}
	}
	return g, nil
}

// hasMarkedAncestor computes, for every node, whether any transitive
// predecessor is marked.
func (g *Graph) hasMarkedAncestor() []bool {
	n := len(g.Block)
	out := make([]bool, n)
	for i := 0; i < n; i++ { // preds have smaller indices is NOT guaranteed; but block order is a topological order
		for _, p := range g.preds[i] {
			if g.Block[p].Marked || out[p] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// neededForMarked computes, for every node, whether any transitive
// successor is marked.
func (g *Graph) neededForMarked() []bool {
	n := len(g.Block)
	out := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		for _, s := range g.succs[i] {
			if g.Block[s].Marked || out[s] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// CriticalPath returns the length (in instructions) of the longest
// dependence chain.
func (g *Graph) CriticalPath() int {
	n := len(g.Block)
	depth := make([]int, n)
	best := 0
	for i := 0; i < n; i++ {
		d := 1
		for _, p := range g.preds[i] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[i] = d
		if d > best {
			best = d
		}
	}
	return best
}

// Dot renders the graph in Graphviz dot syntax (for cmd/fuzzcc -dag).
func (g *Graph) Dot(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", name)
	for i, in := range g.Block {
		shape := "box"
		if in.Marked {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, shape=%s];\n", i, in.String(), shape)
	}
	for _, e := range g.Edges {
		style := "solid"
		if e.Kind != Flow {
			style = "dashed"
		}
		fmt.Fprintf(&sb, "  n%d -> n%d [style=%s, label=%q];\n", e.From, e.To, style, e.Kind)
	}
	sb.WriteString("}\n")
	return sb.String()
}
