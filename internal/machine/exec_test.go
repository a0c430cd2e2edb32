package machine

import (
	"testing"
	"testing/quick"

	"fuzzybarrier/internal/isa"
)

// runOne executes a single-processor program and returns the machine.
func runOne(t *testing.T, b *isa.Builder) (*Machine, *Result) {
	t.Helper()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, res
}

// regAfter runs a program and asserts a register value by storing it to
// memory (registers are not exposed post-run by design).
func TestALUOpcodes(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a, b int64
		want int64
	}{
		{"add", isa.ADD, 7, 5, 12},
		{"sub", isa.SUB, 7, 5, 2},
		{"mul", isa.MUL, 7, 5, 35},
		{"div", isa.DIV, 17, 5, 3},
		{"mod", isa.MOD, 17, 5, 2},
		{"and", isa.AND, 0b1100, 0b1010, 0b1000},
		{"or", isa.OR, 0b1100, 0b1010, 0b1110},
		{"xor", isa.XOR, 0b1100, 0b1010, 0b0110},
		{"shl", isa.SHL, 3, 4, 48},
		{"shr", isa.SHR, 48, 4, 3},
		{"slt-true", isa.SLT, 3, 9, 1},
		{"slt-false", isa.SLT, 9, 3, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := isa.NewBuilder(c.name)
			b.Ldi(1, c.a).Ldi(2, c.b).Alu(c.op, 3, 1, 2).
				Ldi(4, 50).St(4, 0, 3).Halt()
			m, _ := runOne(t, b)
			if got := mustPeek(m.Mem(), 50); got != c.want {
				t.Errorf("%d %v %d = %d, want %d", c.a, c.op, c.b, got, c.want)
			}
		})
	}
}

func TestImmediateOpcodes(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a    int64
		imm  int64
		want int64
	}{
		{"addi", isa.ADDI, 7, 5, 12},
		{"subi", isa.SUBI, 7, 5, 2},
		{"muli", isa.MULI, 7, 5, 35},
		{"divi", isa.DIVI, 17, 5, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := isa.NewBuilder(c.name)
			b.Ldi(1, c.a).AluI(c.op, 3, 1, c.imm).
				Ldi(4, 50).St(4, 0, 3).Halt()
			m, _ := runOne(t, b)
			if got := mustPeek(m.Mem(), 50); got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestBranchOpcodes(t *testing.T) {
	// For each comparison, store 1 if taken, 0 if not.
	cases := []struct {
		op    isa.Op
		a, b  int64
		taken bool
	}{
		{isa.BEQ, 5, 5, true}, {isa.BEQ, 5, 6, false},
		{isa.BNE, 5, 6, true}, {isa.BNE, 5, 5, false},
		{isa.BLT, 4, 5, true}, {isa.BLT, 5, 5, false},
		{isa.BLE, 5, 5, true}, {isa.BLE, 6, 5, false},
		{isa.BGT, 6, 5, true}, {isa.BGT, 5, 5, false},
		{isa.BGE, 5, 5, true}, {isa.BGE, 4, 5, false},
	}
	for _, c := range cases {
		b := isa.NewBuilder("br")
		b.Ldi(1, c.a).Ldi(2, c.b).Ldi(3, 0).
			CondBr(c.op, 1, 2, "taken").
			Br("store")
		b.Label("taken").Ldi(3, 1)
		b.Label("store").Ldi(4, 60).St(4, 0, 3).Halt()
		m, _ := runOne(t, b)
		got := mustPeek(m.Mem(), 60) == 1
		if got != c.taken {
			t.Errorf("%v %d,%d taken = %v, want %v", c.op, c.a, c.b, got, c.taken)
		}
	}
}

func TestMulDivLatency(t *testing.T) {
	run := func(op isa.Op) int64 {
		b := isa.NewBuilder("lat")
		b.Ldi(1, 6).Ldi(2, 3)
		for i := 0; i < 10; i++ {
			b.Alu(op, 3, 1, 2)
		}
		b.Halt()
		_, res := runOne(t, b)
		return res.Cycles
	}
	add, mul, div := run(isa.ADD), run(isa.MUL), run(isa.DIV)
	if mul <= add {
		t.Errorf("MUL cycles (%d) should exceed ADD (%d)", mul, add)
	}
	if div <= mul {
		t.Errorf("DIV cycles (%d) should exceed MUL (%d)", div, mul)
	}
	// Defaults: ADD 1, MUL 3, DIV 8 per op.
	if mul-add != 10*2 {
		t.Errorf("MUL delta = %d, want 20", mul-add)
	}
}

func TestFAASequence(t *testing.T) {
	b := isa.NewBuilder("faa")
	b.Ldi(1, 100). // address
			Ldi(2, 5).
			Faa(3, 1, 0, 2).         // mem[100]: 0 -> 5, r3 = 0
			Faa(4, 1, 0, 2).         // mem[100]: 5 -> 10, r4 = 5
			Ldi(5, 101).St(5, 0, 3). // mem[101] = 0
			Ldi(6, 102).St(6, 0, 4). // mem[102] = 5
			Halt()
	m, _ := runOne(t, b)
	if mustPeek(m.Mem(), 100) != 10 || mustPeek(m.Mem(), 101) != 0 || mustPeek(m.Mem(), 102) != 5 {
		t.Errorf("faa results: %d %d %d", mustPeek(m.Mem(), 100), mustPeek(m.Mem(), 101), mustPeek(m.Mem(), 102))
	}
}

func TestWorkRTiming(t *testing.T) {
	b := isa.NewBuilder("workr")
	b.Ldi(1, 40).WorkR(1).Halt()
	_, res := runOne(t, b)
	if res.Cycles < 40 || res.Cycles > 45 {
		t.Errorf("cycles = %d, want ~41", res.Cycles)
	}
	if res.Procs[0].WorkCycles < 38 {
		t.Errorf("work cycles = %d, want ~39", res.Procs[0].WorkCycles)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("forever").Br("forever")
	m := New(Config{Procs: 1, Mem: simpleMem(1), MaxCycles: 1000})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	if err == nil {
		t.Fatal("infinite loop terminated")
	}
}

func TestPCOutOfRangeFaults(t *testing.T) {
	// A program that runs off the end (no HALT).
	b := isa.NewBuilder("off-end")
	b.Nop()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Faults) != 1 {
		t.Errorf("faults = %v, want pc-out-of-range fault", res.Faults)
	}
}

func TestBadAddressFaults(t *testing.T) {
	b := isa.NewBuilder("oob")
	b.Ldi(1, 1<<40).Ld(2, 1, 0).Halt()
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Faults) != 1 {
		t.Errorf("faults = %v, want out-of-range fault", res.Faults)
	}
}

func TestLoadErrors(t *testing.T) {
	m := New(Config{Procs: 1, Mem: simpleMem(1)})
	if err := m.Load(5, nil); err == nil {
		t.Error("bad processor accepted")
	}
	if err := m.Load(0, nil); err == nil {
		t.Error("nil program accepted")
	}
}

// TestSyncLoopNeverDeadlocksProperty: any combination of per-processor
// work patterns with identical barrier structure terminates with equal
// sync counts on all processors.
func TestSyncLoopNeverDeadlocksProperty(t *testing.T) {
	f := func(works [][3]uint8, regionSeed uint8) bool {
		if len(works) == 0 {
			return true
		}
		procs := len(works)
		if procs > 8 {
			procs = 8
		}
		iters := 3
		region := int64(regionSeed % 30)
		m := New(Config{Procs: procs, Mem: simpleMem(procs), MaxCycles: 1_000_000})
		for p := 0; p < procs; p++ {
			b := isa.NewBuilder("prop")
			b.BarrierInit(1, uint64(allExceptMask(procs, p)))
			for k := 0; k < iters; k++ {
				b.InNonBarrier()
				w := int64(works[p][k%3] % 60)
				if w > 0 {
					b.Work(w)
				} else {
					b.Nop()
				}
				b.InBarrier()
				if region > 0 {
					b.Work(region)
				} else {
					b.Nop()
				}
			}
			b.InNonBarrier().Halt()
			if err := m.Load(p, b.MustBuild()); err != nil {
				return false
			}
		}
		res, err := m.Run()
		if err != nil {
			return false
		}
		for p := 0; p < procs; p++ {
			if res.Procs[p].Syncs != int64(iters) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func allExceptMask(n, self int) uint64 {
	var m uint64
	for p := 0; p < n; p++ {
		if p != self {
			m |= 1 << uint(p)
		}
	}
	return m
}

// TestCyclesDeterministicProperty: the same machine configuration and
// programs always produce identical cycle counts.
func TestCyclesDeterministicProperty(t *testing.T) {
	f := func(seed uint8) bool {
		run := func() int64 {
			m := New(Config{Procs: 2, Mem: simpleMem(2)})
			for p := 0; p < 2; p++ {
				b := isa.NewBuilder("det")
				b.BarrierInit(1, uint64(allExceptMask(2, p)))
				b.Work(int64(seed%20) + int64(p)*3)
				b.InBarrier().Work(int64(seed % 11)).Nop()
				b.InNonBarrier().Halt()
				if err := m.Load(p, b.MustBuild()); err != nil {
					return -1
				}
			}
			res, err := m.Run()
			if err != nil {
				return -2
			}
			return res.Cycles
		}
		a := run()
		return a > 0 && a == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterruptInjection(t *testing.T) {
	// Interrupts must consume cycles without corrupting results.
	run := func(every int64) (int64, int64, int64) {
		b := isa.NewBuilder("irq")
		b.Ldi(1, 0).Ldi(2, 50)
		b.Label("loop").Addi(1, 1, 1).CondBr(isa.BLT, 1, 2, "loop")
		b.Ldi(3, 80).St(3, 0, 1).Halt()
		m := New(Config{Procs: 1, Mem: simpleMem(1), InterruptEvery: every, InterruptCost: 10})
		if err := m.Load(0, b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Cycles, res.Procs[0].IrqCycles, mustPeek(m.Mem(), 80)
	}
	quiet, quietIrq, v1 := run(0)
	noisy, noisyIrq, v2 := run(7)
	if v1 != 50 || v2 != 50 {
		t.Errorf("results corrupted by interrupts: %d / %d, want 50", v1, v2)
	}
	if quietIrq != 0 {
		t.Errorf("quiet run lost %d cycles to interrupts", quietIrq)
	}
	if noisyIrq == 0 {
		t.Error("noisy run recorded no interrupt cycles")
	}
	if noisy <= quiet {
		t.Errorf("interrupted run (%d cycles) should be slower than quiet (%d)", noisy, quiet)
	}
	if noisy-quiet < noisyIrq {
		t.Errorf("cycle inflation (%d) should cover irq cycles (%d)", noisy-quiet, noisyIrq)
	}
}

func TestInterruptsAbsorbedByRegion(t *testing.T) {
	// Two processors, uniform work, staggered interrupts: a point barrier
	// stalls; a sufficient region absorbs the drift (experiment E12's
	// machine-level kernel).
	run := func(region int64) int64 {
		m := New(Config{Procs: 2, Mem: simpleMem(2), InterruptEvery: 10, InterruptCost: 15})
		for p := 0; p < 2; p++ {
			if err := m.Load(p, loopProgram(t, p, 2, 40-region, region, 20)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.TotalStalls()
	}
	point := run(0)
	fuzzy := run(30)
	if point == 0 {
		t.Skip("no stalls under this interrupt pattern; nothing to compare")
	}
	if fuzzy*2 > point {
		t.Errorf("region should absorb interrupt drift: point=%d fuzzy=%d", point, fuzzy)
	}
}
