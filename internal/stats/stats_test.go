package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 3 || s.Median != 3 {
		t.Errorf("mean/median = %v/%v", s.Mean, s.Median)
	}
	if math.Abs(s.Stdev-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("stdev = %v, want sqrt(2.5)", s.Stdev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should return 0")
	}
}

func TestSummarizeAllNaN(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{nan, nan, nan})
	if s.N != 0 || s.Invalid != 3 {
		t.Errorf("all-NaN summary N/Invalid = %d/%d, want 0/3", s.N, s.Invalid)
	}
	if s.Min != 0 || s.Max != 0 || s.Mean != 0 || s.Median != 0 || s.P90 != 0 || s.P99 != 0 || s.Sum != 0 {
		t.Errorf("all-NaN summary not zero: %+v", s)
	}
}

func TestSummarizeSomeNaN(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{nan, 4, 1, nan, 3, 2, 5, nan})
	if s.N != 5 || s.Invalid != 3 {
		t.Fatalf("N/Invalid = %d/%d, want 5/3", s.N, s.Invalid)
	}
	// The valid subsample must yield exactly the NaN-free statistics.
	want := Summarize([]float64{4, 1, 3, 2, 5})
	want.Invalid = 3
	if s != want {
		t.Errorf("summary = %+v, want %+v", s, want)
	}
	for _, v := range []float64{s.Min, s.Max, s.Mean, s.Stdev, s.Median, s.P90, s.P99, s.Sum} {
		if math.IsNaN(v) {
			t.Errorf("NaN leaked into summary: %+v", s)
		}
	}
}

func TestSummarizeInf(t *testing.T) {
	s := Summarize([]float64{math.Inf(-1), 1, 2, math.Inf(1)})
	if s.N != 4 || s.Invalid != 0 {
		t.Fatalf("N/Invalid = %d/%d, want 4/0", s.N, s.Invalid)
	}
	if !math.IsInf(s.Min, -1) || !math.IsInf(s.Max, 1) {
		t.Errorf("min/max = %v/%v, want -Inf/+Inf", s.Min, s.Max)
	}
	// -Inf + +Inf is NaN by IEEE rules; ±Inf observations are valid
	// inputs and the documented propagation applies.
	if !math.IsNaN(s.Sum) || !math.IsNaN(s.Mean) {
		t.Errorf("sum/mean = %v/%v, want NaN (Inf-Inf)", s.Sum, s.Mean)
	}
	if s.Median != 1.5 {
		t.Errorf("median = %v, want 1.5", s.Median)
	}
	one := Summarize([]float64{1, 2, math.Inf(1)})
	if !math.IsInf(one.Sum, 1) || !math.IsInf(one.Mean, 1) || one.Max != math.Inf(1) {
		t.Errorf("+Inf-only summary = %+v", one)
	}
}

func TestPercentileNaN(t *testing.T) {
	nan := math.NaN()
	// sort.Float64s orders NaN before other values; Percentile must
	// exclude them wherever they land.
	withNaN := []float64{nan, nan, 10, 20, 30, 40}
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40} {
		if got := Percentile(withNaN, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v with NaN = %v, want %v", p, got, want)
		}
	}
	// NaN in interior positions (a caller-sorted slice from another
	// source) is excluded too.
	if got := Percentile([]float64{10, nan, 20}, 100); got != 20 {
		t.Errorf("interior NaN P100 = %v, want 20", got)
	}
	if got := Percentile([]float64{nan, nan}, 50); got != 0 {
		t.Errorf("all-NaN percentile = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := map[float64]float64{0: 10, 100: 40, 50: 25, 25: 17.5}
	for p, want := range cases {
		if got := Percentile(sorted, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single-element percentile")
	}
}

// TestPercentileOutOfRangeP pins the documented clamping of p itself:
// out-of-range requests clamp to the extremes instead of indexing
// outside the sample, a NaN p propagates as NaN instead of turning
// into a garbage rank, and every case holds on a single-element sample
// (where any unclamped rank is immediately out of bounds).
func TestPercentileOutOfRangeP(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"p=0 is the minimum", []float64{10, 20, 30, 40}, 0, 10},
		{"p=100 is the maximum", []float64{10, 20, 30, 40}, 100, 40},
		{"p=-5 clamps to the minimum", []float64{10, 20, 30, 40}, -5, 10},
		{"p=250 clamps to the maximum", []float64{10, 20, 30, 40}, 250, 40},
		{"-Inf p clamps to the minimum", []float64{10, 20, 30, 40}, math.Inf(-1), 10},
		{"+Inf p clamps to the maximum", []float64{10, 20, 30, 40}, math.Inf(1), 40},
		{"single element, p=0", []float64{7}, 0, 7},
		{"single element, p=100", []float64{7}, 100, 7},
		{"single element, p=-5", []float64{7}, -5, 7},
		{"single element, p=250", []float64{7}, 250, 7},
	}
	for _, tc := range cases {
		if got := Percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := Percentile([]float64{10, 20}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN p: got %v, want NaN", got)
	}
	if got := Percentile(nil, math.NaN()); got != 0 {
		t.Errorf("NaN p on empty sample: got %v, want 0", got)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Error("speedup 10/2")
	}
	if !math.IsInf(Speedup(10, 0), 1) {
		t.Error("speedup by zero should be +Inf")
	}
}

func TestSeriesMonotone(t *testing.T) {
	var dec Series
	for i, y := range []float64{100, 80, 60, 40} {
		dec.Add(float64(i), y)
	}
	if !dec.Monotone(-1, 0) {
		t.Error("decreasing series not detected")
	}
	if dec.Monotone(+1, 0) {
		t.Error("decreasing series reported increasing")
	}
	// Tolerance: a 5% bump within 10% slack still counts as monotone.
	var noisy Series
	for i, y := range []float64{100, 90, 93, 70} {
		noisy.Add(float64(i), y)
	}
	if !noisy.Monotone(-1, 0.1) {
		t.Error("noisy series should pass with 10% tolerance")
	}
	if noisy.Monotone(-1, 0.01) {
		t.Error("noisy series should fail with 1% tolerance")
	}
}

// TestSummaryInvariants: for any non-empty sample, min <= median <= max,
// p90 <= p99 <= max, and sum = mean*n.
func TestSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		if s.Min > s.Median || s.Median > s.Max {
			return false
		}
		if s.P90 > s.P99+1e-9 || s.P99 > s.Max+1e-9 {
			return false
		}
		return math.Abs(s.Sum-s.Mean*float64(s.N)) < 1e-6*math.Max(1, math.Abs(s.Sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPercentileMonotoneProperty: percentiles are non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(clean, p1) <= Percentile(clean, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRTTEstimator exercises the Jacobson/Karels filter: first sample
// initializes srtt directly, later samples are smoothed, and bad
// samples (negative, NaN) are ignored per Karn's rule.
func TestRTTEstimator(t *testing.T) {
	var e RTTEstimator
	if e.RTO() != 0 || e.n != 0 {
		t.Fatalf("zero value: RTO=%v samples=%d, want 0,0", e.RTO(), e.n)
	}
	e.Observe(100)
	if e.srtt != 100 {
		t.Errorf("first sample: srtt=%v, want 100", e.srtt)
	}
	if got := e.RTO(); got != 100+4*50 {
		t.Errorf("first sample: RTO=%v, want 300", got)
	}
	e.Observe(-5)
	e.Observe(math.NaN())
	if e.n != 1 {
		t.Errorf("bad samples counted: %d, want 1", e.n)
	}
	// A steady stream of identical samples converges: variance decays,
	// RTO approaches the sample value.
	for i := 0; i < 200; i++ {
		e.Observe(100)
	}
	if e.srtt != 100 {
		t.Errorf("steady state srtt=%v, want 100", e.srtt)
	}
	if rto := e.RTO(); rto > 110 {
		t.Errorf("steady state RTO=%v, want near 100", rto)
	}
	// A jump upward raises the RTO above the new srtt (variance spike).
	e.Observe(500)
	if e.RTO() < e.srtt {
		t.Errorf("RTO %v below srtt %v after variance spike", e.RTO(), e.srtt)
	}
}

// TestMonotoneSlack: absolute slack forgives noise near zero that a
// purely relative tolerance would reject.
func TestMonotoneSlack(t *testing.T) {
	var s Series
	for i, y := range []float64{100, 40, 10, 0.3, 0.5, 0.2} {
		s.Add(float64(i), y)
	}
	if s.Monotone(-1, 0.1) {
		t.Error("relative-only tolerance should reject the 0.3 -> 0.5 bump")
	}
	if !s.MonotoneSlack(-1, 0.1, 0.5) {
		t.Error("absolute slack 0.5 should forgive the 0.3 -> 0.5 bump")
	}
	if s.MonotoneSlack(1, 0.1, 0.5) {
		t.Error("series is not non-decreasing under any small slack")
	}
}
