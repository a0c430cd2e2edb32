// Command fuzzcc compiles loop-language source (see internal/lang) into
// per-processor machine code with fuzzy-barrier regions, and optionally
// simulates it.
//
// Usage:
//
//	fuzzcc -procs 4 poisson.loop            # show TAC with regions
//	fuzzcc -procs 4 -mode span poisson.loop # Figure 4(a) construction
//	fuzzcc -procs 4 -show asm poisson.loop  # machine code
//	fuzzcc -procs 4 -show dag poisson.loop  # dependence DAG (Graphviz)
//	fuzzcc -procs 4 -run -miss 5 poisson.loop
//
// Flags:
//
//	-procs N     number of processors (required)
//	-mode M      region construction: span | reorder | point (default reorder)
//	-show W      what to print: tac | asm | dag | stats (default tac)
//	-proc P      which processor's task to print (default 0)
//	-run         simulate after compiling and print statistics
//	-miss N      (with -run) force every N-th memory access to miss
//	-param K=V   bind a named compile-time constant (repeatable)
//	-emit DIR    write each task as DIR/taskN.s (fuzzsim-compatible)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fuzzybarrier/internal/compiler"
	"fuzzybarrier/internal/dag"
	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
)

type paramList map[string]int64

func (p paramList) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramList) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want K=V, got %q", s)
	}
	n, err := strconv.ParseInt(v, 0, 64)
	if err != nil {
		return err
	}
	p[k] = n
	return nil
}

func main() {
	procs := flag.Int("procs", 0, "number of processors")
	modeName := flag.String("mode", "reorder", "region construction: span|reorder|point")
	show := flag.String("show", "tac", "what to print: tac|asm|dag|stats")
	proc := flag.Int("proc", 0, "processor whose task to print")
	run := flag.Bool("run", false, "simulate after compiling")
	miss := flag.Int("miss", 0, "force every N-th access to miss (with -run)")
	emit := flag.String("emit", "", "write per-task assembly into this directory")
	params := paramList{}
	flag.Var(params, "param", "bind a compile-time constant K=V (repeatable)")
	flag.Parse()

	if *procs <= 0 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "fuzzcc: usage: fuzzcc -procs N [flags] file.loop")
		os.Exit(2)
	}
	if *miss < 0 {
		fatal(fmt.Errorf("-miss must be >= 0 (got %d)", *miss))
	}
	var mode compiler.RegionMode
	switch *modeName {
	case "span":
		mode = compiler.RegionSpan
	case "reorder":
		mode = compiler.RegionReorder
	case "point":
		mode = compiler.RegionPoint
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeName))
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	c, err := compiler.Compile(prog, compiler.Options{Procs: *procs, Mode: mode, Params: params})
	if err != nil {
		fatal(err)
	}
	if *proc < 0 || *proc >= len(c.Tasks) {
		fatal(fmt.Errorf("processor %d out of range [0,%d)", *proc, len(c.Tasks)))
	}
	task := c.Tasks[*proc]

	switch *show {
	case "tac":
		fmt.Printf("marked accesses: %s\n\n", strings.Join(c.Marked, " "))
		fmt.Print(task.TAC.String())
	case "asm":
		fmt.Print(task.Machine.Disassemble())
	case "dag":
		block := straightLinePrefix(task.TAC.Code)
		g, err := dag.Build(block)
		if err != nil {
			fatal(err)
		}
		fmt.Print(g.Dot(task.TAC.Name))
	case "stats":
		for _, tk := range c.Tasks {
			st := tk.Stats
			est := tk.Estimate()
			fmt.Printf("P%-3d TAC=%-4d non-barrier=%-4d barrier=%-4d marked=%-4d machine-instrs=%-4d est-cycles=%d (barrier share %.0f%%)\n",
				tk.Proc, st.Total, st.NonBarrier, st.Barrier, st.Marked, tk.Machine.Len(),
				est.Total(), 100*est.BarrierShare())
		}
	default:
		fatal(fmt.Errorf("unknown -show %q", *show))
	}

	if *emit != "" {
		if err := os.MkdirAll(*emit, 0o755); err != nil {
			fatal(err)
		}
		for _, tk := range c.Tasks {
			path := fmt.Sprintf("%s/task%d.s", *emit, tk.Proc)
			if err := os.WriteFile(path, []byte(tk.Machine.AsmText()), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "fuzzcc: wrote %d task files to %s (run them with fuzzsim)\n", len(c.Tasks), *emit)
	}

	if !*run {
		return
	}
	m := machine.New(machine.Config{
		Procs: *procs,
		Mem: mem.Config{
			Words: int(c.Layout.Words) + 64, Procs: *procs,
			HitLatency: 1, MissLatency: 24,
			CacheLines: 64, LineWords: 2,
			Modules: *procs, ModuleBusy: 1,
			MissEveryN: *miss,
		},
	})
	for _, tk := range c.Tasks {
		if err := m.Load(tk.Proc, tk.Machine); err != nil {
			fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsimulation: cycles=%d total-stalls=%d syncs=%d\n",
		res.Cycles, res.TotalStalls(), res.Syncs())
	for p, ps := range res.Procs {
		fmt.Printf("P%-3d instrs=%-7d stalls=%-7d mem-wait=%-7d syncs=%d\n",
			p, ps.Instructions, ps.StallCycles, ps.MemCycles, ps.Syncs)
	}
}

// straightLinePrefix extracts the longest control-free run of TAC for DAG
// display.
func straightLinePrefix(code []ir.Instr) ir.Block {
	var best, cur ir.Block
	for _, in := range code {
		if in.IsControl() {
			if len(cur) > len(best) {
				best = cur
			}
			cur = nil
			continue
		}
		cur = append(cur, in)
	}
	if len(cur) > len(best) {
		best = cur
	}
	return best
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fuzzcc: %v\n", err)
	os.Exit(1)
}
