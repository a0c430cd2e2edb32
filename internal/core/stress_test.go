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
	for _, barrier := range []string{"central", "tree-r4", "hier"} {
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
	for _, tc := range []struct {
		workers int
		row     string
	}{
		{5, "tree-r2"}, {7, "tree-r4"}, {9, "tree-r2"},
	} {
		rep, err := Stress(StressConfig{
			Barrier: tc.row, Workers: tc.workers, Phases: phases, Seed: 0xcafe,
		})
		if err != nil {
			t.Fatalf("workers=%d %s: %v", tc.workers, tc.row, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("workers=%d %s: %s", tc.workers, tc.row, v)
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

// TestStressConfigErrors: invalid configs are rejected up front.
func TestStressConfigErrors(t *testing.T) {
	for _, cfg := range []StressConfig{
		{Barrier: "nope", Workers: 2, Phases: 10},
		{Barrier: "central", Workers: 0, Phases: 10},
		{Barrier: "central", Workers: 2, Phases: 0},
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
