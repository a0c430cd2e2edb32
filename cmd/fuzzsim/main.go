// Command fuzzsim assembles and runs programs on the fuzzy-barrier
// multiprocessor simulator, one assembly file per processor.
//
// Usage:
//
//	fuzzsim [flags] prog0.s [prog1.s ...]
//
// Each file is assembled (see internal/isa.Assemble for the syntax) and
// loaded on the next processor. With a single file and -procs N, the same
// program runs on all N processors.
//
// Flags:
//
//	-procs N        replicate a single program onto N processors
//	-trace          print a per-cycle Gantt chart and the event log
//	-trace-out FILE write a Chrome trace-event JSON (chrome://tracing, Perfetto)
//	-phases         print per-phase cycle attribution (one row per barrier episode)
//	-mem WORDS      shared-memory size in words (default 65536)
//	-miss N         force every N-th access to miss (drift injection)
//	-modules N      number of memory modules (default = processors)
//	-max N          cycle limit (default 50,000,000)
//	-peek A,B       print memory words A..B after the run
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/trace"
)

func main() {
	procs := flag.Int("procs", 0, "replicate a single program onto N processors")
	doTrace := flag.Bool("trace", false, "print Gantt chart and events")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file")
	doPhases := flag.Bool("phases", false, "print per-phase cycle attribution")
	memWords := flag.Int("mem", 1<<16, "shared memory words")
	miss := flag.Int("miss", 0, "force every N-th access to miss")
	modules := flag.Int("modules", 0, "memory modules (default: one per processor)")
	maxCycles := flag.Int64("max", 0, "cycle limit")
	peek := flag.String("peek", "", "print memory range A,B after the run")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "fuzzsim: no program files; see -h")
		os.Exit(2)
	}
	// 0 selects each flag's default; a negative count is refused rather
	// than silently run as the default.
	for _, f := range []struct {
		name string
		v    int64
	}{{"procs", int64(*procs)}, {"mem", int64(*memWords)}, {"miss", int64(*miss)}, {"modules", int64(*modules)}, {"max", *maxCycles}} {
		if f.v < 0 {
			fatal(fmt.Errorf("-%s must be >= 0 (got %d)", f.name, f.v))
		}
	}
	peekLo, peekHi := int64(0), int64(-1) // no words unless -peek names some
	if *peek != "" {
		lo, hi, err := parseRange(*peek)
		if err != nil {
			fatal(err)
		}
		peekLo, peekHi = lo, hi
	}

	var progs []*isa.Program
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		p, err := isa.Assemble(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		p.Name = path
		if err := p.Validate(false); err != nil {
			fmt.Fprintf(os.Stderr, "fuzzsim: warning: %v\n", err)
		}
		progs = append(progs, p)
	}
	n := len(progs)
	if *procs > 0 {
		if len(progs) != 1 {
			fatal(fmt.Errorf("-procs wants exactly one program, got %d", len(progs)))
		}
		n = *procs
		for len(progs) < n {
			progs = append(progs, progs[0])
		}
	}

	mods := *modules
	if mods == 0 {
		mods = n
	}
	var rec *trace.Recorder
	if *doTrace || *traceOut != "" {
		rec = trace.NewRecorder(n)
	}
	var ph *trace.Phases
	if *doPhases {
		ph = trace.NewPhases(n)
	}
	m := machine.New(machine.Config{
		Procs: n,
		Mem: mem.Config{
			Words: *memWords, Procs: n,
			HitLatency: 1, MissLatency: 8,
			CacheLines: 64, LineWords: 4,
			Modules: mods, ModuleBusy: 1,
			MissEveryN: *miss,
		},
		MaxCycles: *maxCycles,
		Recorder:  rec,
		Phases:    ph,
	})
	for p, prog := range progs {
		if err := m.Load(p, prog); err != nil {
			fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzsim: %v\n", err)
	}

	fmt.Printf("cycles: %d\n", res.Cycles)
	for p, ps := range res.Procs {
		fmt.Printf("P%-3d instrs=%-8d barrier-instrs=%-8d stalls=%-8d mem-wait=%-8d syncs=%-6d halted=%v\n",
			p, ps.Instructions, ps.BarrierInstrs, ps.StallCycles, ps.MemCycles, ps.Syncs, ps.Halted)
	}
	ms := res.Mem
	fmt.Printf("memory: accesses=%d hits=%d misses=%d queue-delay=%d invalidates=%d\n",
		ms.Accesses, ms.Hits, ms.Misses, ms.QueueDelay, ms.Invalidates)
	for _, hs := range m.Mem().HotSpots(3) {
		fmt.Printf("hot spot: addr=%d accesses=%d\n", hs.Addr, hs.Count)
	}
	if *doTrace {
		fmt.Println("\nGantt ('=' exec, 'b' barrier region, 'S' stall, '*' sync, 'm' mem, 'w' work):")
		fmt.Print(rec.Gantt())
		for _, ev := range rec.Events() {
			fmt.Printf("cycle %-6d P%-3d %s\n", ev.Cycle, ev.Proc, ev.What)
		}
	}
	if *doPhases {
		fmt.Println()
		fmt.Println(ph.Table("per-phase cycle attribution (phase = barrier episode)"))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace: %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	for a := peekLo; a <= peekHi; a++ {
		v, err := m.Mem().Peek(a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mem[%d] = %d\n", a, v)
	}
	if res.Deadlocked {
		os.Exit(1)
	}
}

// parseRange parses -peek's "A,B" (or "A" for one word) and refuses an
// empty range.
func parseRange(s string) (lo, hi int64, err error) {
	a, b, two := strings.Cut(s, ",")
	lo, err1 := strconv.ParseInt(a, 0, 64)
	hi = lo
	var err2 error
	if two {
		hi, err2 = strconv.ParseInt(b, 0, 64)
	}
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -peek range %q", s)
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("-peek range %q is empty: want A <= B", s)
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fuzzsim: %v\n", err)
	os.Exit(1)
}
