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

// Graph is the dependence DAG of one straight-line block; Block is nil
// when the graph was built over machine code.
type Graph struct {
	Block ir.Block
	Edges []Edge
	preds [][]int
	succs [][]int
}

// Access is one instruction as the dependence builder sees it, at
// either code level: the locations it reads and writes (operands of
// three-address code, registers of machine code), whether it reads or
// writes memory, whether it transfers control, and whether it is marked
// to stay in the non-barrier region.
type Access[K comparable] struct {
	Uses    []K
	Def     K
	HasDef  bool
	Load    bool // reads memory
	Store   bool // writes memory
	Control bool
	Marked  bool
}

// build constructs the dependence DAG of a straight-line run: flow,
// anti and output edges through each location, and conservative memory
// ordering — every store conflicts with every other load or store
// (loads commute with loads). A control instruction depends on
// everything before it and so is pinned after it.
func build[K comparable](acc []Access[K]) *Graph {
	n := len(acc)
	g := &Graph{preds: make([][]int, n), succs: make([][]int, n)}
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

	lastDef := make(map[K]int)    // location -> last defining instr
	lastUses := make(map[K][]int) // location -> uses since last def
	lastStore := -1
	var loadsSinceStore []int

	for i, a := range acc {
		if a.Control {
			for j := 0; j < i; j++ {
				addEdge(j, i, Flow)
			}
			continue
		}
		// Uses: flow edges from last def.
		for _, u := range a.Uses {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i, Flow)
			}
			lastUses[u] = append(lastUses[u], i)
		}
		// Memory ordering.
		if a.Load {
			if lastStore >= 0 {
				addEdge(lastStore, i, Memory)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
		if a.Store {
			if lastStore >= 0 {
				addEdge(lastStore, i, Memory)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i, Memory)
			}
			loadsSinceStore = loadsSinceStore[:0]
			lastStore = i
		}
		// Def: output edge from previous def, anti edges from previous
		// uses.
		if a.HasDef {
			if prev, ok := lastDef[a.Def]; ok {
				addEdge(prev, i, Output)
			}
			for _, u := range lastUses[a.Def] {
				addEdge(u, i, Anti)
			}
			lastDef[a.Def] = i
			lastUses[a.Def] = nil
		}
	}
	return g
}

// tacAccess describes one TAC instruction to the builder. Temporaries
// and scalar variables are locations; constants and array bases are
// not.
func tacAccess(in ir.Instr) Access[ir.Operand] {
	a := Access[ir.Operand]{
		Load: in.ReadsMemory(), Store: in.WritesMemory(),
		Control: in.IsControl(), Marked: in.Marked,
	}
	for _, u := range in.Uses() {
		if k, ok := location(u); ok {
			a.Uses = append(a.Uses, k)
		}
	}
	if d, ok := in.Defs(); ok {
		a.Def, a.HasDef = location(d)
	}
	return a
}

// location returns the identity of a TAC operand that names storage:
// a temporary by number, a variable by name.
func location(o ir.Operand) (ir.Operand, bool) {
	switch o.Kind {
	case ir.KindTemp:
		return ir.Operand{Kind: o.Kind, ID: o.ID}, true
	case ir.KindVar:
		return ir.Operand{Kind: o.Kind, Name: o.Name}, true
	}
	return ir.Operand{}, false
}

// Build constructs the dependence DAG of a TAC block. A trailing control
// instruction depends on everything before it and is pinned last.
func Build(b ir.Block) (*Graph, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	acc := make([]Access[ir.Operand], len(b))
	for i, in := range b {
		acc[i] = tacAccess(in)
	}
	g := build(acc)
	g.Block = b
	return g, nil
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
