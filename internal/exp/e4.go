package exp

import (
	"fmt"

	"fuzzybarrier/internal/compiler"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
	"fuzzybarrier/internal/trace"
)

// fig5Source is the Figure 5(a) loop: S1 carries a cross-processor
// dependence, S2 does not, so distributing the loop moves all of S2 into
// the barrier region.
const fig5Source = `
int a[8][12];
int b[8][12];
int c[8][12];
for (i=1; i<=10; i++) do seq
  for (j=1; j<=6; j++) do par {
    a[j][i] = a[j+1][i-1] + 2;
    b[j][i] = b[j][i] + c[j][i];
  }
`

// compileAndRun compiles a program and simulates it with cache-miss drift
// injection, returning region stats and the simulation result.
func compileAndRun(prog *lang.Program, procs int, mode compiler.RegionMode, missEveryN int) (*compiler.Compiled, *machine.Result, error) {
	c, err := compiler.Compile(prog, compiler.Options{Procs: procs, Mode: mode})
	if err != nil {
		return nil, nil, err
	}
	memCfg := mem.Config{
		Words: int(c.Layout.Words) + 64, Procs: procs,
		HitLatency: 1, MissLatency: 24,
		CacheLines: 64, LineWords: 2,
		Modules: procs, ModuleBusy: 1,
		MissEveryN: missEveryN,
	}
	m := machine.New(machine.Config{Procs: procs, Mem: memCfg})
	for _, task := range c.Tasks {
		if err := m.Load(task.Proc, task.Machine); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("simulation: %w", err)
	}
	return c, res, nil
}

// E4LoopDistribution reproduces Figure 5: compiling the loop with and
// without loop distribution, with and without reordering, and measuring
// the barrier-region share and the stall cycles under cache-miss drift.
func E4LoopDistribution() (*trace.Table, error) {
	const procs = 3
	const missEvery = 5
	t := trace.NewTable(
		"E4: loop distribution enlarges barrier regions (Figure 5)",
		"variant", "mode", "non-barrier TAC", "barrier TAC", "stalls", "cycles",
	)
	for _, distributed := range []bool{false, true} {
		prog := lang.MustParse(fig5Source)
		name := "original"
		if distributed {
			outer := prog.Body[0].(*lang.ForStmt)
			inner := outer.Body[0].(*lang.ForStmt)
			loops, err := compiler.DistributeLoop(inner)
			if err != nil {
				return nil, err
			}
			outer.Body = []lang.Stmt{loops[0], loops[1]}
			name = "distributed"
		}
		for _, mode := range []compiler.RegionMode{compiler.RegionPoint, compiler.RegionReorder} {
			c, res, err := compileAndRun(prog, procs, mode, missEvery)
			if err != nil {
				return nil, err
			}
			st := c.Tasks[0].Stats
			t.AddRow(name, mode.String(), st.NonBarrier, st.Barrier, res.TotalStalls(), res.Cycles)
		}
	}
	t.AddNote("distribution moves the whole S2 loop into the barrier region, cutting stalls under drift")
	return t, nil
}
