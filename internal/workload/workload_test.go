package workload

import (
	"testing"
	"testing/quick"

	"fuzzybarrier/internal/des"
	"fuzzybarrier/internal/isa"
	"fuzzybarrier/internal/machine"
	"fuzzybarrier/internal/mem"
)

func runAll(t *testing.T, progs []*machineProgram, memCfg mem.Config) *machine.Result {
	t.Helper()
	m := machine.New(machine.Config{Procs: len(progs), Mem: memCfg})
	for p, prog := range progs {
		if err := prog.err; err != nil {
			t.Fatalf("P%d build: %v", p, err)
		}
		if err := prog.p.Validate(false); err != nil {
			t.Fatalf("P%d validate: %v", p, err)
		}
		if err := m.Load(p, prog.p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

type machineProgram struct {
	p   *isa.Program
	err error
}

func wrap(p *isa.Program, err error) *machineProgram { return &machineProgram{p, err} }

func fastMem(procs int) mem.Config {
	return mem.Config{Words: 256, Procs: procs, HitLatency: 1, MissLatency: 1, Modules: procs, ModuleBusy: 1}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := des.NewRNG(42), des.NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := des.NewRNG(43)
	same := 0
	a = des.NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
	if des.NewRNG(0).Next() == 0 {
		t.Error("zero seed should be remapped")
	}
}

func TestRNGIntNRange(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int64(n8%50) + 1
		r := des.NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return r.IntN(0) == 0 && r.IntN(-3) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWorkVectors(t *testing.T) {
	u := UniformWork(5, 7)
	if len(u) != 5 || u[0] != 7 || u[4] != 7 {
		t.Errorf("uniform = %v", u)
	}
	a0 := AlternatingWork(4, 1, 9, 0)
	a1 := AlternatingWork(4, 1, 9, 1)
	if a0[0] != 1 || a0[1] != 9 || a1[0] != 9 || a1[1] != 1 {
		t.Errorf("alternating = %v / %v", a0, a1)
	}
	d := DriftWork(des.NewRNG(1), 100, 50, 20)
	for _, w := range d {
		if w < 50 || w >= 70 {
			t.Fatalf("drift value %d out of [50,70)", w)
		}
	}
	if len(BarrierOnlyWork(3)) != 3 {
		t.Error("barrier-only work length")
	}
}

func TestSyncLoopRuns(t *testing.T) {
	const procs, iters = 3, 10
	progs := make([]*machineProgram, procs)
	for p := 0; p < procs; p++ {
		progs[p] = wrap(SyncLoop{
			Self: p, Procs: procs,
			Work: UniformWork(iters, 5), Region: 3,
		}.Program())
	}
	res := runAll(t, progs, fastMem(procs))
	if res.Syncs() != iters {
		t.Errorf("syncs = %d, want %d", res.Syncs(), iters)
	}
	if res.TotalStalls() > 3 {
		t.Errorf("uniform work should not stall: %d", res.TotalStalls())
	}
}

func TestSyncLoopValidation(t *testing.T) {
	if _, err := (SyncLoop{Self: 2, Procs: 2, Work: UniformWork(1, 1)}).Program(); err == nil {
		t.Error("bad self accepted")
	}
	if _, err := (SyncLoop{Self: 0, Procs: 1}).Program(); err == nil {
		t.Error("empty work accepted")
	}
}

func TestIfLoopFuzzyBeatsPoint(t *testing.T) {
	const procs, iters = 2, 40
	run := func(fuzzy bool) int64 {
		progs := make([]*machineProgram, procs)
		for p := 0; p < procs; p++ {
			progs[p] = wrap(IfLoop{
				Self: p, Procs: procs, Iters: iters,
				S1Work: 10, ThenWork: 5, ElseWork: 40,
				FuzzyIf: fuzzy, Seed: 7,
			}.Program())
		}
		return runAll(t, progs, fastMem(procs)).TotalStalls()
	}
	point, fuzzy := run(false), run(true)
	// The region only absorbs drift up to its own length, so expect a
	// solid (not total) reduction: at least one third fewer stall cycles.
	if fuzzy*3 > point*2 {
		t.Errorf("fuzzy if stalls (%d) should be well below point (%d)", fuzzy, point)
	}
}

func TestIfLoopDifferentSeedsDiverge(t *testing.T) {
	a, err := IfLoop{Self: 0, Procs: 2, Iters: 20, S1Work: 1, ThenWork: 2, ElseWork: 3, Seed: 1}.Program()
	if err != nil {
		t.Fatal(err)
	}
	b, err := IfLoop{Self: 1, Procs: 2, Iters: 20, S1Work: 1, ThenWork: 2, ElseWork: 3, Seed: 1}.Program()
	if err != nil {
		t.Fatal(err)
	}
	if a.Disassemble() == b.Disassemble() {
		t.Error("different processors should take different branch patterns")
	}
}

func TestCentralBarrierLoopSynchronizes(t *testing.T) {
	const procs, episodes = 4, 20
	progs := make([]*machineProgram, procs)
	for p := 0; p < procs; p++ {
		progs[p] = wrap(CentralBarrierLoop{
			Self: p, Procs: procs, Work: BarrierOnlyWork(episodes),
		}.Program())
	}
	memCfg := fastMem(procs)
	m := machine.New(machine.Config{Procs: procs, Mem: memCfg})
	for p, prog := range progs {
		if prog.err != nil {
			t.Fatal(prog.err)
		}
		if err := m.Load(p, prog.p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The release word must equal the episode count, the counter zero.
	lay := DefaultSoftBarrierLayout()
	if got := m.Mem().MustPeek(lay.Release); got != episodes {
		t.Errorf("release = %d, want %d", got, episodes)
	}
	if got := m.Mem().MustPeek(lay.Counter); got != 0 {
		t.Errorf("counter = %d, want 0", got)
	}
	if res.Deadlocked {
		t.Error("deadlocked")
	}
	// No fuzzy-hardware syncs: this is a pure software barrier.
	if res.Syncs() != 0 {
		t.Errorf("hardware syncs = %d, want 0", res.Syncs())
	}
}

func TestCentralBarrierUnequalWork(t *testing.T) {
	// Processors with very different work must still synchronize
	// correctly (the spin loop does its job).
	const procs, episodes = 3, 10
	progs := make([]*machineProgram, procs)
	for p := 0; p < procs; p++ {
		work := make([]int64, episodes)
		for i := range work {
			work[i] = int64(5 + 20*p)
		}
		progs[p] = wrap(CentralBarrierLoop{Self: p, Procs: procs, Work: work}.Program())
	}
	m := machine.New(machine.Config{Procs: procs, Mem: fastMem(procs)})
	for p, prog := range progs {
		if prog.err != nil {
			t.Fatal(prog.err)
		}
		if err := m.Load(p, prog.p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := m.Mem().MustPeek(DefaultSoftBarrierLayout().Release); got != episodes {
		t.Errorf("release = %d, want %d", got, episodes)
	}
}

func TestDisseminationBarrierLoopSynchronizes(t *testing.T) {
	const procs, episodes = 8, 15
	progs := make([]*machineProgram, procs)
	for p := 0; p < procs; p++ {
		work := make([]int64, episodes)
		for i := range work {
			work[i] = int64((p*7+i*3)%20 + 1) // uneven, bounded drift
		}
		progs[p] = wrap(DisseminationBarrierLoop{Self: p, Procs: procs, Work: work}.Program())
	}
	m := machine.New(machine.Config{Procs: procs, Mem: fastMem(procs)})
	for p, prog := range progs {
		if prog.err != nil {
			t.Fatal(prog.err)
		}
		if err := prog.p.Validate(false); err != nil {
			t.Fatal(err)
		}
		if err := m.Load(p, prog.p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	// Every flag ends at exactly the episode count: each processor
	// signalled each of its round partners once per episode.
	lay := DisseminationBarrierLoop{Self: 0, Procs: procs}
	rounds := lay.Rounds()
	for p := 0; p < procs; p++ {
		for r := 0; r < rounds; r++ {
			addr := int64(16 + r*procs + p)
			if got := m.Mem().MustPeek(addr); got != episodes {
				t.Errorf("flag[P%d][round %d] = %d, want %d", p, r, got, episodes)
			}
		}
	}
}

func TestDisseminationRoundsAndWords(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 8: 3, 16: 4}
	for procs, rounds := range cases {
		c := DisseminationBarrierLoop{Self: 0, Procs: procs}
		if got := c.Rounds(); got != rounds {
			t.Errorf("Rounds(%d) = %d, want %d", procs, got, rounds)
		}
		if got := c.FlagWords(); got != procs*rounds {
			t.Errorf("FlagWords(%d) = %d, want %d", procs, got, procs*rounds)
		}
	}
}
