// Package stats provides small numeric helpers used by the simulator,
// the experiment harness and the benchmark tables: summary statistics,
// histograms and series formatting.
//
// The package is intentionally dependency-free (stdlib math/sort only) so
// every other module in the repository can use it without import cycles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual five-number-style description of a sample.
type Summary struct {
	N       int // valid (non-NaN) observations
	Invalid int // NaN observations, excluded from every statistic
	Min     float64
	Max     float64
	Mean    float64
	Stdev   float64
	Median  float64
	P90     float64
	P99     float64
	Sum     float64
}

// Summarize computes a Summary over xs. An empty sample yields a zero
// Summary with N == 0.
//
// NaN observations are filtered out and counted in Invalid (mirroring
// Histogram.Invalid) — sorting places NaN unspecified, so a single NaN
// would otherwise corrupt Min/Max and every percentile. An all-NaN
// sample yields a zero Summary with N == 0 and Invalid == len(xs).
// ±Inf observations are valid and propagate into Min/Max/Sum/Mean
// (and make Stdev NaN), as IEEE arithmetic dictates.
func Summarize(xs []float64) Summary {
	var s Summary
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) {
			s.Invalid++
			continue
		}
		sorted = append(sorted, x)
	}
	s.N = len(sorted)
	if s.N == 0 {
		return s
	}
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	if s.N > 1 {
		s.Stdev = math.Sqrt(sq / float64(s.N-1))
	}
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (0..100) of a sorted sample using
// linear interpolation between closest ranks. The input must be sorted in
// ascending order; an empty sample yields 0.
//
// Out-of-range p is clamped: p <= 0 yields the minimum, p >= 100 the
// maximum, so p = -5 or p = 250 never indexes outside the sample. A NaN
// p orders with neither bound and would otherwise turn the rank into a
// garbage index; it propagates as NaN instead.
//
// NaN elements are excluded before ranking (sort places them in
// unspecified positions, so ranks over a NaN-bearing sample would be
// garbage); a sample of only NaNs yields 0. The exclusion scan copies
// the sample only when a NaN is actually present.
func Percentile(sorted []float64, p float64) float64 {
	for i, x := range sorted {
		if math.IsNaN(x) {
			// Slow path: rebuild the sample without NaNs. The non-NaN
			// elements keep their relative order, so the result is still
			// sorted.
			clean := make([]float64, 0, len(sorted)-1)
			clean = append(clean, sorted[:i]...)
			for _, y := range sorted[i+1:] {
				if !math.IsNaN(y) {
					clean = append(clean, y)
				}
			}
			sorted = clean
			break
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanInts is Mean over an integer sample.
func MeanInts(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// MaxInts returns the maximum of xs, or 0 for an empty sample.
func MaxInts(xs []int64) int64 {
	var m int64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// MinInts returns the minimum of xs, or 0 for an empty sample.
func MinInts(xs []int64) int64 {
	var m int64
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// SumInts returns the sum of xs.
func SumInts(xs []int64) int64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Speedup returns base/v, guarding against division by zero.
func Speedup(base, v float64) float64 {
	if v == 0 {
		return math.Inf(1)
	}
	return base / v
}

// Histogram is a fixed-width-bucket histogram over float64 observations.
type Histogram struct {
	lo      float64
	width   float64
	Counts  []int64
	Under   int64 // observations below Lo
	Over    int64 // observations at or above Lo+Width*len(Counts)
	Invalid int64 // NaN observations, which no bucket can hold
	Samples int64
}

// NewHistogram creates a histogram with n buckets of the given width
// starting at lo. It panics if n <= 0 or width <= 0 — histogram shape is a
// programming decision, not runtime input.
func NewHistogram(lo, width float64, n int) *Histogram {
	if n <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram shape n=%d width=%g", n, width))
	}
	return &Histogram{lo: lo, width: width, Counts: make([]int64, n)}
}

// Observe records a single observation. NaN is counted in Invalid, -Inf
// in Under and +Inf in Over; no input can panic. (Converting a huge or
// non-finite float to int is platform-defined in Go — on amd64 it
// produces math.MinInt64, which used to index out of range.)
func (h *Histogram) Observe(x float64) {
	h.Samples++
	if math.IsNaN(x) {
		h.Invalid++
		return
	}
	if x < h.lo {
		h.Under++
		return
	}
	// Bucket in float space first: the quotient can exceed int range (or
	// be NaN when Lo is infinite), so compare before converting.
	idx := (x - h.lo) / h.width
	if idx < float64(len(h.Counts)) {
		h.Counts[int(idx)]++
		return
	}
	h.Over++
}

// Bucket returns the [lo, hi) bounds of bucket i.
func (h *Histogram) Bucket(i int) (lo, hi float64) {
	lo = h.lo + float64(i)*h.width
	return lo, lo + h.width
}

// String renders the histogram as a compact text table.
func (h *Histogram) String() string {
	out := ""
	if h.Under > 0 {
		out += fmt.Sprintf("  <%g: %d\n", h.lo, h.Under)
	}
	for i, c := range h.Counts {
		lo, hi := h.Bucket(i)
		out += fmt.Sprintf("  [%g,%g): %d\n", lo, hi, c)
	}
	if h.Over > 0 {
		lo, _ := h.Bucket(len(h.Counts))
		out += fmt.Sprintf("  >=%g: %d\n", lo, h.Over)
	}
	if h.Invalid > 0 {
		out += fmt.Sprintf("  NaN: %d\n", h.Invalid)
	}
	return out
}

// RTTEstimator is the Jacobson/Karels smoothed round-trip-time filter
// (the RFC 6298 rules): an EWMA of the RTT (srtt, gain 1/8) and of its
// deviation (rttvar, gain 1/4), combined into a retransmission timeout
// of srtt + 4*rttvar. internal/cluster's reliable-delivery layer feeds
// it ack-measured RTTs; the zero value is ready to use.
type RTTEstimator struct {
	srtt, rttvar float64
	n            int
}

// Observe folds one RTT sample into the filter. Negative and NaN
// samples are ignored (a retransmitted message has no unambiguous RTT —
// Karn's rule — so callers simply skip those).
func (e *RTTEstimator) Observe(sample float64) {
	if sample < 0 || math.IsNaN(sample) {
		return
	}
	if e.n == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		d := sample - e.srtt
		e.rttvar = (1-beta)*e.rttvar + beta*math.Abs(d)
		e.srtt += alpha * d
	}
	e.n++
}

// Samples returns the number of samples observed.
func (e *RTTEstimator) Samples() int { return e.n }

// SRTT returns the smoothed round-trip time (0 before any sample).
func (e *RTTEstimator) SRTT() float64 { return e.srtt }

// RTO returns the recommended retransmission timeout, srtt + 4*rttvar,
// or 0 before any sample (callers fall back to their configured initial
// timeout).
func (e *RTTEstimator) RTO() float64 {
	if e.n == 0 {
		return 0
	}
	return e.srtt + 4*e.rttvar
}

// Series is a named (x, y) series used by the experiment tables.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Monotone reports whether the Y values are non-increasing (dir < 0) or
// non-decreasing (dir > 0), within a relative tolerance tol. It is the
// check the experiment harness uses to validate "shape" claims.
func (s *Series) Monotone(dir int, tol float64) bool {
	return s.MonotoneSlack(dir, tol, 0)
}

// MonotoneSlack is Monotone with an additional absolute slack: adjacent
// points may violate the direction by abs plus rel times their
// magnitude. The absolute term matters for series that decay toward
// zero (e.g. residual stall ticks), where a purely relative tolerance
// shrinks to nothing and noise of a fraction of a tick would fail an
// otherwise clean monotone shape.
func (s *Series) MonotoneSlack(dir int, rel, abs float64) bool {
	for i := 1; i < len(s.Y); i++ {
		prev, cur := s.Y[i-1], s.Y[i]
		slack := abs + rel*math.Max(math.Abs(prev), math.Abs(cur))
		switch {
		case dir < 0 && cur > prev+slack:
			return false
		case dir > 0 && cur < prev-slack:
			return false
		}
	}
	return true
}
