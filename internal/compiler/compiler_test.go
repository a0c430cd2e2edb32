package compiler

import (
	"strings"
	"testing"

	"fuzzybarrier/internal/ir"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
)

const poissonSrc = `
/* Figure 3(a): Poisson solver, M = 2. Boundary values live in rows and
   columns 0 and 3. */
int P[4][4];
for (k=1; k<=20; k++) do seq
  for (i=1; i<=2; i++) do par
    for (j=1; j<=2; j++) do par {
      P[i][j] = (P[i][j+1] + P[i][j-1] + P[i+1][j] + P[i-1][j]) / 4;
    }
`

const fig9Src = `
/* Figure 9: lexically forward + loop carried dependences. */
int a[10][5];
for (j=1; j<=9; j++) do seq
  for (i=1; i<=4; i++) do par {
    a[j][i] = a[j-1][i-1] + i*j;
  }
`

const fig5Src = `
/* Figure 5(a): candidate for loop distribution. */
int a[8][12];
int b[8][12];
int c[8][12];
for (i=1; i<=10; i++) do seq
  for (j=1; j<=6; j++) do par {
    a[j][i] = a[j+1][i-1] + 2;
    b[j][i] = b[j][i] + c[j][i];
  }
`

func runTasks(t *testing.T, c *Compiled, procs int) (*machine.Machine, *machine.Result) {
	t.Helper()
	words := c.Layout.Words + 64
	m := machine.New(machine.Config{
		Procs: procs,
		Mem: mem.Config{
			Words: int(words), Procs: procs,
			HitLatency: 1, MissLatency: 1, Modules: procs, ModuleBusy: 1,
		},
	})
	for _, task := range c.Tasks {
		if err := task.Machine.Validate(false); err != nil {
			t.Fatalf("P%d machine code invalid: %v", task.Proc, err)
		}
		if err := m.Load(task.Proc, task.Machine); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("simulation failed: %v\nP0 code:\n%s", err, c.Tasks[0].Machine.Disassemble())
	}
	return m, res
}

func TestAnalyzePoissonMarksAllAccesses(t *testing.T) {
	prog := lang.MustParse(poissonSrc)
	an := analyze(prog)
	want := []string{
		"P[i+1][j]:R", "P[i-1][j]:R", "P[i][j+1]:R", "P[i][j-1]:R", "P[i][j]:W",
	}
	for _, sig := range want {
		if !an.Marked(sig) {
			t.Errorf("access %s not marked; marked set: %v", sig, an.MarkedSignatures())
		}
	}
}

func TestAnalyzeFig5Marking(t *testing.T) {
	prog := lang.MustParse(fig5Src)
	an := analyze(prog)
	for _, sig := range []string{"a[j][i]:W", "a[j+1][i-1]:R"} {
		if !an.Marked(sig) {
			t.Errorf("access %s should be marked; marked set: %v", sig, an.MarkedSignatures())
		}
	}
	// S2's accesses stay with their owning processor (par var j, zero
	// displacement), so they must not be marked.
	for _, sig := range []string{"b[j][i]:W", "b[j][i]:R", "c[j][i]:R"} {
		if an.Marked(sig) {
			t.Errorf("access %s wrongly marked; marked set: %v", sig, an.MarkedSignatures())
		}
	}
}

func TestReorderShrinksNonBarrierRegion(t *testing.T) {
	prog := lang.MustParse(poissonSrc)
	span, err := Compile(prog, Options{Procs: 4, Mode: RegionSpan})
	if err != nil {
		t.Fatalf("span compile: %v", err)
	}
	reorder, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatalf("reorder compile: %v", err)
	}
	s0 := span.Tasks[0].Stats
	r0 := reorder.Tasks[0].Stats
	if r0.NonBarrier >= s0.NonBarrier {
		t.Errorf("reordering should shrink the non-barrier region: span=%d reorder=%d\nspan TAC:\n%s\nreorder TAC:\n%s",
			s0.NonBarrier, r0.NonBarrier, span.Tasks[0].TAC, reorder.Tasks[0].TAC)
	}
	if r0.Barrier <= s0.Barrier {
		t.Errorf("reordering should grow the barrier region: span=%d reorder=%d", s0.Barrier, r0.Barrier)
	}
	// The marked instructions must all be in the non-barrier region.
	for _, task := range reorder.Tasks {
		for _, in := range task.TAC.Code {
			if in.Marked && in.Barrier {
				t.Errorf("P%d: marked instruction %q placed in barrier region", task.Proc, in.String())
			}
		}
	}
}

func TestPoissonRunsToCompletion(t *testing.T) {
	prog := lang.MustParse(poissonSrc)
	for _, mode := range []RegionMode{RegionSpan, RegionReorder, RegionPoint} {
		c, err := Compile(prog, Options{Procs: 4, Mode: mode})
		if err != nil {
			t.Fatalf("%v compile: %v", mode, err)
		}
		_, res := runTasks(t, c, 4)
		if res.Deadlocked {
			t.Fatalf("%v: deadlocked", mode)
		}
		if res.Syncs() < 20 {
			t.Errorf("%v: syncs = %d, want >= 20 (one per outer iteration)", mode, res.Syncs())
		}
	}
}

func fig9Reference() [10][5]int64 {
	var a [10][5]int64
	for j := 1; j <= 9; j++ {
		for i := 1; i <= 4; i++ {
			a[j][i] = a[j-1][i-1] + int64(i*j)
		}
	}
	return a
}

func TestFig9ComputesCorrectValues(t *testing.T) {
	prog := lang.MustParse(fig9Src)
	ref := fig9Reference()
	for _, mode := range []RegionMode{RegionSpan, RegionReorder, RegionPoint} {
		c, err := Compile(prog, Options{Procs: 4, Mode: mode})
		if err != nil {
			t.Fatalf("%v compile: %v", mode, err)
		}
		m, res := runTasks(t, c, 4)
		if res.Deadlocked {
			t.Fatalf("%v deadlocked", mode)
		}
		for j := 0; j <= 9; j++ {
			for i := 0; i <= 4; i++ {
				addr, err := c.Layout.Addr("a", int64(j), int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if got := mustPeek(m.Mem(), addr); got != ref[j][i] {
					t.Errorf("%v: a[%d][%d] = %d, want %d", mode, j, i, got, ref[j][i])
				}
			}
		}
	}
}

func TestFig9UnrolledMatchesReference(t *testing.T) {
	// Unrolling the sequential loop once (Figure 9's tasks) produces two
	// windows per unrolled iteration — the Figure 10 structure — and must
	// still compute the same values. Use j=1..8 so the trip count is
	// divisible.
	src := strings.Replace(fig9Src, "j<=9", "j<=8", 1)
	prog := lang.MustParse(src)
	outer := prog.Body[0].(*lang.ForStmt)
	unrolled, err := UnrollSeq(outer, 2, nil)
	if err != nil {
		t.Fatalf("unroll: %v", err)
	}
	prog.Body[0] = unrolled

	c, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, res := runTasks(t, c, 4)
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	// Two windows per unrolled iteration: one barrier for the lexically
	// forward dependence, one for the loop-carried (Figure 10).
	if res.Syncs() < 8 {
		t.Errorf("syncs = %d, want >= 8 (two per unrolled iteration x 4)", res.Syncs())
	}
	var ref [10][5]int64
	for j := 1; j <= 8; j++ {
		for i := 1; i <= 4; i++ {
			ref[j][i] = ref[j-1][i-1] + int64(i*j)
		}
	}
	for j := 0; j <= 8; j++ {
		for i := 0; i <= 4; i++ {
			addr, err := c.Layout.Addr("a", int64(j), int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if got := mustPeek(m.Mem(), addr); got != ref[j][i] {
				t.Errorf("a[%d][%d] = %d, want %d", j, i, got, ref[j][i])
			}
		}
	}
}

func TestLoopDistribution(t *testing.T) {
	prog := lang.MustParse(fig5Src)
	outer := prog.Body[0].(*lang.ForStmt)
	inner := outer.Body[0].(*lang.ForStmt)
	loops, err := DistributeLoop(inner)
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	outer.Body = []lang.Stmt{loops[0], loops[1]}

	// After distribution the S2 loop is wholly unmarked, so it belongs to
	// the barrier region: the barrier share of the body must be large.
	c, err := Compile(prog, Options{Procs: 3, Mode: RegionReorder})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st := c.Tasks[0].Stats
	if st.Barrier <= st.NonBarrier {
		t.Errorf("after distribution barrier region (%d) should exceed non-barrier (%d)\n%s",
			st.Barrier, st.NonBarrier, c.Tasks[0].TAC)
	}
	_, res := runTasks(t, c, 3)
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
}

func TestDistributionIllegalOnBackwardDep(t *testing.T) {
	src := `
int x[8][8];
for (i=1; i<=6; i++) do seq
  for (j=1; j<=6; j++) do par {
    x[j][i] = x[j][i] + 1;
    x[j][i] = x[j][i] * 2;
  }
`
	prog := lang.MustParse(src)
	inner := prog.Body[0].(*lang.ForStmt).Body[0].(*lang.ForStmt)
	if _, err := DistributeLoop(inner); err == nil {
		t.Fatal("expected distribution to be rejected (same array written by both statements)")
	}
}

func TestBlockDistributionCoversAllIterations(t *testing.T) {
	// 6 parallel iterations on 4 processors: blocks of 2,2,2,0.
	prog := lang.MustParse(fig5Src)
	c, err := Compile(prog, Options{Procs: 4, Mode: RegionSpan})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, res := runTasks(t, c, 4)
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	// a[j][i] = a[j+1][i-1] + 2 chains diagonally from the never-written
	// row 7: after the run, a[j][10] = 2 * (7 - j) for j in 1..6. Getting
	// these values right requires the barrier to order each row-(j+1)
	// write before the row-j read of the next outer iteration across the
	// block boundaries.
	for j := int64(1); j <= 6; j++ {
		addr, err := c.Layout.Addr("a", j, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustPeek(m.Mem(), addr); got != 2*(7-j) {
			t.Errorf("a[%d][10] = %d, want %d", j, got, 2*(7-j))
		}
	}
	_ = res
}

func TestUnrollRejectsIndivisible(t *testing.T) {
	prog := lang.MustParse(fig9Src) // 9 iterations
	outer := prog.Body[0].(*lang.ForStmt)
	if _, err := UnrollSeq(outer, 2, nil); err == nil {
		t.Fatal("expected unroll of 9 iterations by 2 to fail")
	}
}

func TestCompileRejectsBadShapes(t *testing.T) {
	cases := []string{
		// Top-level par loop.
		`int a[4][4];
		 for (i=1; i<=2; i++) do par { a[i][1] = 1; }`,
		// Non-parallel statement inside the sequential loop.
		`int a[4][4];
		 for (k=1; k<=2; k++) do seq { a[1][1] = k; }`,
	}
	for i, src := range cases {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("case %d parse: %v", i, err)
		}
		if _, err := Compile(prog, Options{Procs: 2}); err == nil {
			t.Errorf("case %d: expected compile error", i)
		}
	}
}

func TestTACRenderingShowsRegions(t *testing.T) {
	prog := lang.MustParse(poissonSrc)
	c, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Tasks[0].TAC.String()
	if !strings.Contains(out, "Barrier:") || !strings.Contains(out, "Non-barrier:") {
		t.Errorf("TAC rendering missing region banners:\n%s", out)
	}
}

const fig7Src = `
/* Figure 7: a parallel loop whose body ends in an if-statement with
   branches of different length. S1 carries the cross-processor
   dependence; the if-statement touches only processor-private data. */
int s[8][12];
int w[8][12];
for (i=1; i<=10; i++) do seq
  for (j=1; j<=4; j++) do par {
    s[j][i] = s[j+1][i-1] + 1;
    if (j < 3) then {
      w[j][1] = w[j][1] + 1;
    } else {
      w[j][1] = w[j][1] + 1;
      w[j][2] = w[j][2] + 2;
      w[j][3] = w[j][3] + 3;
      w[j][3] = w[j][3] * 2;
    }
  }
`

func TestFig7IfStatementLandsInBarrierRegion(t *testing.T) {
	prog := lang.MustParse(fig7Src)
	c, err := Compile(prog, Options{Procs: 4, Mode: RegionReorder})
	if err != nil {
		t.Fatal(err)
	}
	// The if-statement (unmarked) must be barrier code: look for a
	// conditional TAC instruction with the Barrier flag set.
	task := c.Tasks[0]
	foundBarrierIf := false
	for _, in := range task.TAC.Code {
		if in.Op == ir.IfGoto && in.Target != "Lhead" && in.Barrier {
			foundBarrierIf = true
		}
	}
	if !foundBarrierIf {
		t.Errorf("if-statement not in barrier region:\n%s", task.TAC)
	}
	// Exactly one window per iteration (only S1 is marked): 10 iteration
	// boundaries plus the initial region before the first window.
	m, res := runTasks(t, c, 4)
	if res.Syncs() != 11 {
		t.Errorf("syncs = %d, want 11 (one window per iteration + initial region)", res.Syncs())
	}
	_ = m
}

func TestFig7FuzzyBeatsPointUnderBranchVariance(t *testing.T) {
	prog := lang.MustParse(fig7Src)
	run := func(mode RegionMode) int64 {
		c, err := Compile(prog, Options{Procs: 4, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		_, res := runTasks(t, c, 4)
		return res.TotalStalls()
	}
	point := run(RegionPoint)
	fuzzy := run(RegionReorder)
	if point == 0 {
		t.Skip("no branch-variance stalls in this configuration")
	}
	if fuzzy >= point {
		t.Errorf("fuzzy stalls (%d) should be below point (%d)", fuzzy, point)
	}
}

// mustPeek reads simulated memory at addr without timing, panicking on a
// bad address.
func mustPeek(s *mem.System, addr int64) int64 {
	v, err := s.Peek(addr)
	if err != nil {
		panic(err)
	}
	return v
}
