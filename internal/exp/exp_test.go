package exp

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fuzzybarrier/internal/trace"
)

// TestAllExperimentsRun executes every experiment and sanity-checks the
// produced tables: every experiment must produce rows and no table may
// carry a self-reported WARNING note (the generators validate their own
// expected shapes).
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tbl.String()
			if strings.Contains(out, "WARNING") {
				t.Errorf("%s self-reported a shape violation:\n%s", e.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All length mismatch")
	}
}

func cell(t *testing.T, tbl *trace.Table, row, col int) float64 {
	t.Helper()
	rows := tbl.Rows
	if row >= len(rows) || col >= len(rows[row]) {
		t.Fatalf("cell (%d,%d) out of range", row, col)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, rows[row][col], err)
	}
	return v
}

// TestE1OverheadDrops checks the headline shape: the sync overhead with a
// half-body region must be at least 5x smaller than with a zero region
// (the paper reports ~33x on the Encore).
func TestE1OverheadDrops(t *testing.T) {
	tbl, err := E1SyncCostVsRegionSize()
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 4)
	last := cell(t, tbl, len(tbl.Rows)-1, 4)
	if first < 1 {
		t.Fatalf("zero-region overhead %v implausibly low", first)
	}
	if last*5 > first {
		t.Errorf("overhead should drop >=5x: region0=%v halfBody=%v", first, last)
	}
}

// TestE2ScalingShapes checks Section 1's cost spectrum on one table:
// central grows linearly with P, dissemination logarithmically, and the
// fuzzy hardware stays flat.
func TestE2ScalingShapes(t *testing.T) {
	tbl, err := E2BarrierScaling()
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in (central, dissem, fuzzy) triples for P = 2,4,8,16.
	rows := len(tbl.Rows)
	if rows != 12 {
		t.Fatalf("rows = %d, want 12", rows)
	}
	central := func(i int) float64 { return cell(t, tbl, 3*i, 2) }
	dissem := func(i int) float64 { return cell(t, tbl, 3*i+1, 2) }
	fuzzy := func(i int) float64 { return cell(t, tbl, 3*i+2, 2) }
	// Central doubles with P (linear).
	for i := 0; i < 3; i++ {
		ratio := central(i+1) / central(i)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("central P-doubling ratio %d = %.2f, want ~2 (linear)", i, ratio)
		}
	}
	// Dissemination grows by roughly a constant per doubling (log).
	d01 := dissem(1) - dissem(0)
	d23 := dissem(3) - dissem(2)
	if d01 <= 0 || d23 <= 0 || d23 > 2*d01 {
		t.Errorf("dissemination increments per doubling = %v then %v, want ~constant (log)", d01, d23)
	}
	// Fuzzy flat, and dominant at P=16.
	if fuzzy(3) > fuzzy(0)*1.5 {
		t.Errorf("fuzzy barrier should stay ~flat: P2=%v P16=%v", fuzzy(0), fuzzy(3))
	}
	if central(3) < fuzzy(3)*5 || central(3) < dissem(3)*2 {
		t.Errorf("at P=16: central=%v dissem=%v fuzzy=%v, want central >> dissem > fuzzy",
			central(3), dissem(3), fuzzy(3))
	}
}

// TestE3ReorderingShrinks checks the Figure 4 shape.
func TestE3ReorderingShrinks(t *testing.T) {
	tbl, err := E3RegionReordering()
	if err != nil {
		t.Fatal(err)
	}
	spanNB := cell(t, tbl, 0, 2)
	reorderNB := cell(t, tbl, 1, 2)
	if reorderNB >= spanNB {
		t.Errorf("reordering should shrink non-barrier region: span=%v reorder=%v", spanNB, reorderNB)
	}
}

// TestE5FuzzyIfBeatsPoint checks that placing the if-statement in the
// barrier region reduces stalls for unequal branches.
func TestE5FuzzyIfBeatsPoint(t *testing.T) {
	tbl, err := E5VariableLengthStreams()
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in (point, fuzzy) pairs per spread; compare the most
	// unequal spread (last pair).
	n := len(tbl.Rows)
	point := cell(t, tbl, n-2, 2)
	fuzzy := cell(t, tbl, n-1, 2)
	if fuzzy*2 > point {
		t.Errorf("fuzzy if-in-region stalls (%v) should be well below point (%v)", fuzzy, point)
	}
}

// TestE7OnlyRotatingFuzzyEliminatesIdle checks the Figure 11 shape.
func TestE7OnlyRotatingFuzzyEliminatesIdle(t *testing.T) {
	tbl, err := E7StaticScheduling()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: fixed/point, fixed/fuzzy, rotating/point, rotating/fuzzy.
	fixedPoint := cell(t, tbl, 0, 2)
	rotFuzzy := cell(t, tbl, 3, 2)
	if rotFuzzy*10 > fixedPoint {
		t.Errorf("rotating+fuzzy stalls (%v) should be ~10x below fixed+point (%v)", rotFuzzy, fixedPoint)
	}
}

// TestE8GSSBeatsSelfOnSchedulingOps checks that GSS needs far fewer
// scheduling operations than one-at-a-time self-scheduling while keeping
// stalls low with the fuzzy region.
func TestE8GSSBeatsSelfOnSchedulingOps(t *testing.T) {
	tbl, err := E8RuntimeScheduling()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: self/point, self/fuzzy, chunk/point, chunk/fuzzy, gss/point, gss/fuzzy.
	selfOps := cell(t, tbl, 0, 4)
	gssOps := cell(t, tbl, 4, 4)
	if gssOps*2 > selfOps {
		t.Errorf("GSS scheduling ops (%v) should be well below self-scheduling (%v)", gssOps, selfOps)
	}
}

// TestE10LargeRegionsNearlyEliminateStalls checks that growing the region
// collapses stall time. Exactly zero is not expected: with independent
// per-iteration jitter the inter-processor skew random-walks, so a small
// residual remains even when region > drift amplitude.
func TestE10LargeRegionsNearlyEliminateStalls(t *testing.T) {
	tbl, err := E10StallProbability()
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 1)
	last := cell(t, tbl, len(tbl.Rows)-1, 1)
	if first < 5 {
		t.Fatalf("zero-region stalls/iter = %v, implausibly low", first)
	}
	if last*5 > first {
		t.Errorf("stalls should drop >=5x from region 0 (%v) to region 80 (%v)", first, last)
	}
}

// TestE12RegionAbsorbsInterrupts checks the extension's shape: with a
// region comparable to the interrupt cost, stall time returns to ~0 even
// under frequent interrupts.
func TestE12RegionAbsorbsInterrupts(t *testing.T) {
	tbl, err := E12InterruptTolerance()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (never,0) (never,30) (40,0) (40,30) (15,0) (15,30).
	noisyPoint := cell(t, tbl, 4, 2)
	noisyFuzzy := cell(t, tbl, 5, 2)
	if noisyPoint < 2 {
		t.Fatalf("frequent-interrupt point-barrier stalls = %v, implausibly low", noisyPoint)
	}
	if noisyFuzzy > noisyPoint/4 {
		t.Errorf("fuzzy stalls under interrupts (%v) should be <= 1/4 of point (%v)", noisyFuzzy, noisyPoint)
	}
}

// TestE13MultiVersionRestoresTolerance checks the extension's shape:
// ordinary-code callees double the synchronizations and add stalls; the
// two-version technique matches the barrier-code row exactly.
func TestE13MultiVersionRestoresTolerance(t *testing.T) {
	tbl, err := E13ProcedureCalls()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: barrier code, ordinary code, two versions.
	barrierSyncs := cell(t, tbl, 0, 1)
	ordinarySyncs := cell(t, tbl, 1, 1)
	twoVerSyncs := cell(t, tbl, 2, 1)
	if ordinarySyncs != 2*barrierSyncs {
		t.Errorf("ordinary-code syncs = %v, want 2x barrier-code (%v)", ordinarySyncs, barrierSyncs)
	}
	if twoVerSyncs != barrierSyncs {
		t.Errorf("two-version syncs = %v, want %v", twoVerSyncs, barrierSyncs)
	}
	ordinaryStalls := cell(t, tbl, 1, 2)
	twoVerStalls := cell(t, tbl, 2, 2)
	if twoVerStalls >= ordinaryStalls && ordinaryStalls > 0 {
		t.Errorf("two-version stalls (%v) should be below ordinary-code (%v)", twoVerStalls, ordinaryStalls)
	}
}

// TestE4DistributionUnlocksReordering checks the Figure 5 shape: only the
// distributed+reordered variant collapses stalls.
func TestE4DistributionUnlocksReordering(t *testing.T) {
	tbl, err := E4LoopDistribution()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: original/point, original/reorder, distributed/point,
	// distributed/reorder. Column 4 = stalls.
	originalReorder := cell(t, tbl, 1, 4)
	distributedReorder := cell(t, tbl, 3, 4)
	if distributedReorder*10 > originalReorder {
		t.Errorf("distributed+reorder stalls (%v) should be ~10x below original+reorder (%v)",
			distributedReorder, originalReorder)
	}
}

// TestE6ReorderToleratesDrift checks the Figures 9-10 shape: under every
// injected drift level the reordered two-barrier code stalls less than
// half as much as the point-barrier code.
func TestE6ReorderToleratesDrift(t *testing.T) {
	tbl, err := E6LexicallyForward()
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows
	// Rows alternate point/reorder per drift level; skip the drift-free
	// pair (index 0,1).
	for i := 2; i+1 < len(rows); i += 2 {
		point := cell(t, tbl, i, 2)
		reorder := cell(t, tbl, i+1, 2)
		if reorder*2 > point {
			t.Errorf("row %d: reorder stalls (%v) should be < half of point (%v)", i, reorder, point)
		}
	}
}

// TestE11BoundHolds checks that every row reports peak == N-1 within the
// bound.
func TestE11BoundHolds(t *testing.T) {
	tbl, err := E11MultipleBarriers()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("row %d (%v): bound violated", i, row)
		}
		peak := cell(t, tbl, i, 2)
		bound := cell(t, tbl, i, 3)
		if peak != bound {
			t.Errorf("row %d: peak %v != N-1 %v (spawn should use the full budget)", i, peak, bound)
		}
	}
}

// TestE15DeterministicReplay pins the acceptance criterion for the
// cluster experiment: even with drop and duplication enabled, two
// generations of the table are byte-identical (seeded RNG,
// single-threaded event loop, (time, seq) tie-breaking).
func TestE15DeterministicReplay(t *testing.T) {
	a, err := E15ClusterSync()
	if err != nil {
		t.Fatal(err)
	}
	b, err := E15ClusterSync()
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatal("E15 table differs across runs — cluster sim is nondeterministic")
	}
}

// TestE15RegionAbsorbsClusterSync checks the headline shape per
// (protocol, network) series: the half-body region cuts per-epoch stall
// by at least 4x versus the crisp barrier, and the monotone check in the
// generator itself must not have fired (covered by TestAllExperimentsRun,
// re-asserted here against the ratio).
func TestE15RegionAbsorbsClusterSync(t *testing.T) {
	tbl, err := E15ClusterSync()
	if err != nil {
		t.Fatal(err)
	}
	per := len(e15Regions)
	if len(tbl.Rows)%per != 0 {
		t.Fatalf("row count %d not a multiple of the region sweep %d", len(tbl.Rows), per)
	}
	for s := 0; s < len(tbl.Rows); s += per {
		label := tbl.Rows[s][0] + "/" + tbl.Rows[s][1]
		crisp := cell(t, tbl, s, 4)
		fuzzy := cell(t, tbl, s+per-1, 4)
		if crisp < float64(e15Latency) {
			t.Errorf("%s: crisp stall %v below one link latency — sync cost not visible", label, crisp)
		}
		if fuzzy*4 > crisp {
			t.Errorf("%s: half-body region should cut stall >=4x: crisp=%v fuzzy=%v", label, crisp, fuzzy)
		}
	}
}

// TestE18ReduceDeHotspots checks E18's headline shape: the spread
// allreduce's hottest node is constant in fleet size, while the central
// gather word and the clustered (leaf-0) routing both absorb ~one
// operation per member per phase — linear hot spots.
func TestE18ReduceDeHotspots(t *testing.T) {
	tbl, err := E18FleetAggregation()
	if err != nil {
		t.Fatal(err)
	}
	nN := len(e18N)
	if len(tbl.Rows) != len(e18Strategies)*nN {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(e18Strategies)*nN)
	}
	// Rows are strategy-major in e18Strategies order; hotspot is column 5.
	central := func(i int) float64 { return cell(t, tbl, i, 5) }
	spread := func(i int) float64 { return cell(t, tbl, nN+i, 5) }
	clustered := func(i int) float64 { return cell(t, tbl, 2*nN+i, 5) }
	for i := 1; i < nN; i++ {
		if spread(i) != spread(0) {
			t.Errorf("reduce-spread hotspot at n=%d is %v, want constant %v", e18N[i], spread(i), spread(0))
		}
	}
	last := nN - 1
	n := float64(e18N[last])
	if central(last) < n || clustered(last) < n {
		t.Errorf("at n=%d: central=%v clustered=%v, both should be >= n (linear hot spot)",
			e18N[last], central(last), clustered(last))
	}
	if spread(last)*10 > central(last) {
		t.Errorf("at n=%d: spread hotspot %v should be >=10x below central %v",
			e18N[last], spread(last), central(last))
	}
}

// TestE19TablePinned pins E19's rows: every cell is a deterministic
// barrierd-on-SimNet run, so a change that moves any of them changed
// the simulator's dispatch order or the service's protocol, not noise.
func TestE19TablePinned(t *testing.T) {
	tbl, err := E19ServiceLatency()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"0", "70.5", "43.5", "178.0", "69", "217"},
		{"25", "70.5", "898.5", "1387.5", "69", "217"},
		{"50", "76.8", "218.0", "863.9", "60", "216"},
		{"100", "98.4", "51.0", "123.3", "63", "216"},
		{"200", "195.2", "47.0", "125.6", "59", "216"},
		{"400", "388.7", "46.5", "130.5", "65", "216"},
	}
	if got := tbl.Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("E19 rows moved:\n got %v\nwant %v", got, want)
	}
}
