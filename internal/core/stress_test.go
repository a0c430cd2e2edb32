package core

import "testing"

// stressPhases scales the harness for CI: -short keeps make check and
// the race-enabled verify lane fast; full runs push harder.
func stressPhases(t *testing.T) int {
	if testing.Short() {
		return 64
	}
	return 400
}

// TestStressBarriers runs the weak-memory harness over every runtime
// barrier, with both the default spin budget and a starved one
// (SpinLimit 1 forces the block path through the condition variable).
func TestStressBarriers(t *testing.T) {
	phases := stressPhases(t)
	for _, barrier := range []string{"fuzzy", "tree", "hier", "dynamic"} {
		for _, spin := range []int{0, 1} {
			rep, err := Stress(StressConfig{
				Barrier: barrier, Workers: 4, Phases: phases,
				Seed: 0x5eed, SpinLimit: spin,
			})
			if err != nil {
				t.Fatalf("%s spin=%d: %v", barrier, spin, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s spin=%d: %s", barrier, spin, v)
			}
			t.Logf("%s", rep)
		}
	}
}

// TestStressTreeShapes covers non-trivial tree topologies: worker
// counts that don't fill the last level, and radix 2 vs 4.
func TestStressTreeShapes(t *testing.T) {
	phases := stressPhases(t)
	for _, tc := range []struct{ workers, radix int }{
		{5, 2}, {7, 4}, {9, 2},
	} {
		rep, err := Stress(StressConfig{
			Barrier: "tree", Workers: tc.workers, Phases: phases,
			Seed: 0xcafe, TreeRadix: tc.radix,
		})
		if err != nil {
			t.Fatalf("workers=%d radix=%d: %v", tc.workers, tc.radix, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("workers=%d radix=%d: %s", tc.workers, tc.radix, v)
		}
	}
}

// TestStressHierShapes covers non-trivial hierarchical topologies:
// worker counts that leave shards unbalanced, a pinned single shard
// (degenerate guarded tree), and more shards than the host has cores so
// the release fan-out always outlives some waiters' spin windows.
func TestStressHierShapes(t *testing.T) {
	phases := stressPhases(t)
	for _, tc := range []struct{ workers, shards, radix int }{
		{5, 2, 2}, {7, 3, 4}, {9, 1, 2}, {8, 8, 2},
	} {
		for _, spin := range []int{0, 1} {
			rep, err := Stress(StressConfig{
				Barrier: "hier", Workers: tc.workers, Phases: phases,
				Seed: 0x41e5, SpinLimit: spin,
				HierShards: tc.shards, TreeRadix: tc.radix,
			})
			if err != nil {
				t.Fatalf("workers=%d shards=%d radix=%d spin=%d: %v", tc.workers, tc.shards, tc.radix, spin, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("workers=%d shards=%d radix=%d spin=%d: %s", tc.workers, tc.shards, tc.radix, spin, v)
			}
		}
	}
}

// TestStressDynamicChurn adds transient members registering and leaving
// against the permanent members' phases — the schedule class that found
// the pre-mutex DynamicBarrier races (see host in phaser.go and
// TestRaceDynamicRegisterDuringCompletion).
func TestStressDynamicChurn(t *testing.T) {
	phases := stressPhases(t)
	rep, err := Stress(StressConfig{
		Barrier: "dynamic", Workers: 4, Phases: phases,
		Seed: 0xd1ce, Churners: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.ChurnJoins == 0 {
		t.Error("churners never completed a join/leave round")
	}
	t.Logf("%s", rep)
}

// TestStressReduce hammers the reduce barrier: every WaitValue result is
// compared against the serial fold of that phase's contributions. The
// seeds are chosen so every operator in the harness's {sum, xor, min,
// max} family is drawn at least once (logged for inspection), and both
// spin budgets steer Waits onto every slow-path flavor.
func TestStressReduce(t *testing.T) {
	phases := stressPhases(t)
	seen := map[string]bool{}
	for _, seed := range []uint64{0x5eed, 0x5eed + 1, 0x5eed + 2, 0x5eed + 3, 0xfeed, 0xdead} {
		for _, spin := range []int{0, 1} {
			rep, err := Stress(StressConfig{
				Barrier: "reduce", Workers: 4, Phases: phases,
				Seed: seed, SpinLimit: spin, TreeRadix: 2,
			})
			if err != nil {
				t.Fatalf("seed=%#x spin=%d: %v", seed, spin, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("seed=%#x spin=%d: %s", seed, spin, v)
			}
			seen[rep.ReduceOp] = true
			t.Logf("%s", rep)
		}
	}
	for _, op := range []string{"sum", "xor", "min", "max"} {
		if !seen[op] {
			t.Errorf("operator %q never drawn by the seed set — extend the seeds", op)
		}
	}
}

// TestStressPhaser runs the phaser under permanent signal+wait members
// with signal-only and wait-only churners registering and leaving
// against live phases.
func TestStressPhaser(t *testing.T) {
	phases := stressPhases(t)
	for _, churners := range []int{0, 4} {
		for _, spin := range []int{0, 1} {
			rep, err := Stress(StressConfig{
				Barrier: "phaser", Workers: 4, Phases: phases,
				Seed: 0x9a5e, SpinLimit: spin, Churners: churners,
			})
			if err != nil {
				t.Fatalf("churners=%d spin=%d: %v", churners, spin, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("churners=%d spin=%d: %s", churners, spin, v)
			}
			if churners > 0 && rep.ChurnJoins == 0 {
				t.Error("phaser churners never completed a register/leave round")
			}
			t.Logf("%s", rep)
		}
	}
}

// TestStressConfigErrors: invalid configs are rejected up front.
func TestStressConfigErrors(t *testing.T) {
	for _, cfg := range []StressConfig{
		{Barrier: "nope", Workers: 2, Phases: 10},
		{Barrier: "fuzzy", Workers: 0, Phases: 10},
		{Barrier: "fuzzy", Workers: 2, Phases: 0},
		{Barrier: "fuzzy", Workers: 2, Phases: 10, Churners: 1},  // churn needs dynamic or phaser
		{Barrier: "reduce", Workers: 2, Phases: 10, Churners: 1}, // reduce has fixed membership
		{Barrier: "dynamic", Workers: 2, Phases: 4, Churners: 1}, // churn needs >= 8 phases
		{Barrier: "phaser", Workers: 2, Phases: 4, Churners: 1},  // same bound for phaser churn
		{Barrier: "dynamic", Workers: 2, Phases: 10, Churners: -1},
	} {
		if _, err := Stress(cfg); err == nil {
			t.Errorf("config %+v: expected an error", cfg)
		}
	}
}

// TestStressRNGPinned pins the schedule randomizers to the values the
// hand-inlined copies of the splitmix64 finalizer produced before they
// were expressed through splitmix64: every stress schedule, operator
// draw and reduce contribution stays bit-identical.
func TestStressRNGPinned(t *testing.T) {
	r := stressRNG(0x5eed)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"stressRNG(0x5eed).next() #1", r.next(), 0x9f1fd9d03f0a9b4},
		{"stressRNG(0x5eed).next() #2", r.next(), 0x553274161bbf8475},
		{"mix64(0x5eed, 0)", mix64(0x5eed, 0), 0xa18f67d4db95243f},
		{"mix64(0xcafe, 0x5bd1)", mix64(0xcafe, 0x5bd1), 0xc65eea7554147a84},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
