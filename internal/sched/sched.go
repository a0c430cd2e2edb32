// Package sched implements the loop-iteration scheduling policies of
// Sections 7.3 and 7.4: the static block schedule, the rotating
// remainder schedule of Figure 11(b) that equalizes work across rounds
// when the iteration count is not divisible by the processor count, and
// the run-time self-scheduling family of Figure 12 — one-at-a-time
// self-scheduling, fixed-size chunking, and guided self-scheduling (GSS,
// Polychronopoulos & Kuck).
package sched

import (
	"fmt"
	"sync"
)

// Assignment lists the iteration indices (0-based) each processor
// executes.
type Assignment [][]int

// Block assigns contiguous blocks with a balanced floor/remainder split:
// every processor gets ⌊n/procs⌋ iterations and the first n mod procs
// processors take one extra, so per-processor counts differ by at most
// one. (A naive ⌈n/procs⌉ chunking leaves whole processors idle — e.g.
// 9 iterations on 8 processors would yield [2 2 2 2 1 0 0 0] instead of
// [2 1 1 1 1 1 1 1] — which skews the imbalance experiments.)
func Block(n, procs int) Assignment {
	if procs <= 0 {
		return Assignment{}
	}
	out := make(Assignment, procs)
	if n <= 0 {
		return out
	}
	base, rem := n/procs, n%procs
	lo := 0
	for p := 0; p < procs; p++ {
		size := base
		if p < rem {
			size++
		}
		for i := lo; i < lo+size; i++ {
			out[p] = append(out[p], i)
		}
		lo += size
	}
	return out
}

// Rotating is the Figure 11(b) schedule: iterations are dealt
// round-robin, but the processors "take turns in executing the extra
// iteration" — the deal order rotates by the round number, so over procs
// consecutive rounds every processor executes the same total number of
// iterations even when n % procs != 0.
func Rotating(n, procs, round int) Assignment {
	if procs <= 0 {
		return Assignment{}
	}
	out := make(Assignment, procs)
	shift := round % procs
	if shift < 0 {
		shift += procs
	}
	for i := 0; i < n; i++ {
		p := (i + shift) % procs
		out[p] = append(out[p], i)
	}
	return out
}

// ImbalanceOver reports, for a schedule generator, the difference between
// the maximum and minimum total iterations any processor executes across
// `rounds` rounds — 0 means perfectly equalized (the Figure 11(c) goal).
func ImbalanceOver(gen func(round int) Assignment, rounds int) int {
	var totals []int
	for r := 0; r < rounds; r++ {
		a := gen(r)
		if totals == nil {
			totals = make([]int, len(a))
		}
		for p, its := range a {
			totals[p] += len(its)
		}
	}
	if len(totals) == 0 {
		return 0
	}
	min, max := totals[0], totals[0]
	for _, v := range totals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// Dynamic is a run-time scheduler: processors repeatedly call Next until
// it returns ok=false. Implementations are safe for concurrent use.
type Dynamic interface {
	// Next returns the next chunk [start, start+size) for the calling
	// processor, or ok=false when the iteration space is exhausted.
	Next() (start, size int, ok bool)
	// Name identifies the policy in tables.
	Name() string
	// Reset restarts the iteration space (for the next round).
	Reset(n int)
}

// SelfSched hands out one iteration at a time — minimal imbalance, maximal
// scheduling overhead (one synchronized operation per iteration).
type SelfSched struct {
	mu   sync.Mutex
	next int
	n    int
}

// NewSelfSched creates a one-at-a-time scheduler over n iterations.
func NewSelfSched(n int) *SelfSched { return &SelfSched{n: n} }

// Next implements Dynamic.
func (s *SelfSched) Next() (int, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.n {
		return 0, 0, false
	}
	i := s.next
	s.next++
	return i, 1, true
}

// Name implements Dynamic.
func (s *SelfSched) Name() string { return "self" }

// Reset implements Dynamic.
func (s *SelfSched) Reset(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n, s.next = n, 0
}

// Chunked hands out fixed-size chunks.
type Chunked struct {
	mu    sync.Mutex
	next  int
	n     int
	chunk int
}

// NewChunked creates a fixed-chunk scheduler.
func NewChunked(n, chunk int) (*Chunked, error) {
	if chunk < 1 {
		return nil, fmt.Errorf("sched: chunk size %d < 1", chunk)
	}
	return &Chunked{n: n, chunk: chunk}, nil
}

// Next implements Dynamic.
func (c *Chunked) Next() (int, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= c.n {
		return 0, 0, false
	}
	start := c.next
	size := c.chunk
	if start+size > c.n {
		size = c.n - start
	}
	c.next += size
	return start, size, true
}

// Name implements Dynamic.
func (c *Chunked) Name() string { return fmt.Sprintf("chunk%d", c.chunk) }

// Reset implements Dynamic.
func (c *Chunked) Reset(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n, c.next = n, 0
}

// GSS is guided self-scheduling: each request takes ⌈remaining/procs⌉
// iterations, so chunks start large (low overhead) and shrink toward the
// end (low imbalance) — the property Section 7.4 relies on to make
// processors "complete execution at about the same time".
type GSS struct {
	mu    sync.Mutex
	next  int
	n     int
	procs int
}

// NewGSS creates a guided self-scheduler for the given processor count.
func NewGSS(n, procs int) (*GSS, error) {
	if procs < 1 {
		return nil, fmt.Errorf("sched: procs %d < 1", procs)
	}
	return &GSS{n: n, procs: procs}, nil
}

// Next implements Dynamic.
func (g *GSS) Next() (int, int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	remaining := g.n - g.next
	if remaining <= 0 {
		return 0, 0, false
	}
	size := (remaining + g.procs - 1) / g.procs
	start := g.next
	g.next += size
	return start, size, true
}

// Name implements Dynamic.
func (g *GSS) Name() string { return "gss" }

// Reset implements Dynamic.
func (g *GSS) Reset(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n, g.next = n, 0
}

// Version selects which of the four compiled loop-body versions of Figure
// 12 a chunk's iteration should execute, given its position within the
// processor's chunk: the first iteration starts with a barrier region, the
// last is followed by one, intervening iterations have none, and a
// single-iteration chunk is both preceded and followed.
type Version int

// Figure 12's four loop-body versions.
const (
	VersionFirst  Version = iota // first and not last
	VersionLast                  // last and not first
	VersionMiddle                // neither first nor last
	VersionOnly                  // first and last
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case VersionFirst:
		return "version1(first)"
	case VersionLast:
		return "version2(last)"
	case VersionMiddle:
		return "version3(middle)"
	case VersionOnly:
		return "version4(only)"
	}
	return fmt.Sprintf("Version(%d)", int(v))
}

// VersionFor classifies iteration idx within a chunk of the given size.
func VersionFor(idx, size int) Version {
	first := idx == 0
	last := idx == size-1
	switch {
	case first && last:
		return VersionOnly
	case first:
		return VersionFirst
	case last:
		return VersionLast
	default:
		return VersionMiddle
	}
}
