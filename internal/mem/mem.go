// Package mem models the shared-memory system of the simulated
// multiprocessor: a flat word-addressed shared memory, optional private
// per-processor caches (timing-only), interleaved memory modules that
// serialize concurrent accesses, and hot-spot accounting in the sense of
// Yew, Tzeng and Lawrie (the paper's reference [4]).
//
// The cache is a *timing* model: data always lives in the shared word
// array, so the simulator never observes stale values; a cache hit or miss
// only changes how many cycles an access takes. This is the standard
// simplification for synchronization studies — the paper uses cache misses
// purely as a source of execution-rate drift between processors, which a
// timing-only model reproduces exactly.
package mem

import (
	"fmt"
	"sort"
)

// Config describes a memory system.
type Config struct {
	// Words is the size of shared memory in 64-bit words.
	Words int
	// Procs is the number of processors (one private cache each).
	Procs int

	// HitLatency is the cycle cost of a cache hit (>= 1).
	HitLatency int64
	// MissLatency is the cycle cost of a cache miss (>= HitLatency).
	MissLatency int64

	// CacheLines is the number of direct-mapped lines per private cache;
	// 0 disables caching (every access costs MissLatency).
	CacheLines int
	// LineWords is the number of words per cache line (power of two).
	LineWords int

	// Modules is the number of interleaved memory modules; concurrent
	// accesses to the same module queue behind each other. 0 or 1 means a
	// single module (worst-case hot-spot behaviour); a value >= Procs
	// approximates a conflict-free network for uniform traffic.
	Modules int
	// ModuleBusy is how many cycles one access occupies its module.
	ModuleBusy int64

	// MissEveryN, when > 0, deterministically forces every N-th access by
	// a processor to miss, creating the bounded execution-rate drift the
	// fuzzy barrier is designed to tolerate (Section 1). The forcing is
	// per processor and offset by the processor index so processors drift
	// relative to each other.
	MissEveryN int
}

// DefaultConfig returns a small, fast memory system suitable for tests:
// single-cycle hits, 8-cycle misses, 64-line caches, Procs modules.
func DefaultConfig(procs, words int) Config {
	return Config{
		Words:       words,
		Procs:       procs,
		HitLatency:  1,
		MissLatency: 8,
		CacheLines:  64,
		LineWords:   4,
		Modules:     procs,
		ModuleBusy:  1,
	}
}

func (c *Config) normalize() {
	if c.Words <= 0 {
		c.Words = 1 << 16
	}
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.HitLatency <= 0 {
		c.HitLatency = 1
	}
	if c.MissLatency < c.HitLatency {
		c.MissLatency = c.HitLatency
	}
	if c.LineWords <= 0 {
		c.LineWords = 1
	}
	if c.Modules <= 0 {
		c.Modules = 1
	}
	if c.ModuleBusy <= 0 {
		c.ModuleBusy = 1
	}
}

// Stats aggregates memory-system activity.
type Stats struct {
	Accesses    int64 // total reads+writes+atomics
	Atomics     int64
	Hits        int64
	Misses      int64
	ForcedMiss  int64 // misses injected by MissEveryN
	QueueDelay  int64 // total cycles spent waiting for a busy module
	Invalidates int64 // lines invalidated in other caches by writes
}

type cacheLine struct {
	valid bool
	tag   int64
}

type cache struct {
	lines     []cacheLine
	lineWords int64
	accesses  int64 // per-processor access counter for MissEveryN
}

func (c *cache) lookup(addr int64) (idx int, tag int64, hit bool) {
	line := addr / c.lineWords
	idx = int(line % int64(len(c.lines)))
	tag = line
	hit = c.lines[idx].valid && c.lines[idx].tag == tag
	return idx, tag, hit
}

// System is a shared-memory model. It is not safe for concurrent use; the
// cycle-level simulator drives it from a single goroutine.
type System struct {
	cfg        Config
	words      []int64
	caches     []*cache
	moduleFree []int64 // cycle at which each module becomes free
	addrCounts map[int64]int64
	stats      Stats
}

// New creates a memory system. Invalid config fields are normalized to
// safe defaults.
func New(cfg Config) *System {
	cfg.normalize()
	s := &System{
		cfg:        cfg,
		words:      make([]int64, cfg.Words),
		moduleFree: make([]int64, cfg.Modules),
		addrCounts: make(map[int64]int64),
	}
	if cfg.CacheLines > 0 {
		s.caches = make([]*cache, cfg.Procs)
		for i := range s.caches {
			s.caches[i] = &cache{
				lines:     make([]cacheLine, cfg.CacheLines),
				lineWords: int64(cfg.LineWords),
			}
		}
	}
	return s
}

// Config returns the (normalized) configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the accumulated statistics.
func (s *System) Stats() Stats { return s.stats }

// Poke stores a value without modeling timing — for loading initial data.
func (s *System) Poke(addr int64, v int64) error {
	if addr < 0 || addr >= int64(len(s.words)) {
		return fmt.Errorf("mem: poke address %d out of range [0,%d)", addr, len(s.words))
	}
	s.words[addr] = v
	return nil
}

// Peek loads a value without modeling timing — for inspecting results.
func (s *System) Peek(addr int64) (int64, error) {
	if addr < 0 || addr >= int64(len(s.words)) {
		return 0, fmt.Errorf("mem: peek address %d out of range [0,%d)", addr, len(s.words))
	}
	return s.words[addr], nil
}

// MustPeek is Peek that panics on a bad address; for tests.
func (s *System) MustPeek(addr int64) int64 {
	v, err := s.Peek(addr)
	if err != nil {
		panic(err)
	}
	return v
}

func (s *System) checkAddr(addr int64) error {
	if addr < 0 || addr >= int64(len(s.words)) {
		return fmt.Errorf("mem: address %d out of range [0,%d)", addr, len(s.words))
	}
	return nil
}

// latency computes the access latency for proc touching addr, updating
// cache state. Atomic accesses bypass the cache.
func (s *System) latency(proc int, addr int64, write, atomic bool) int64 {
	if atomic {
		// Atomics bypass the issuing cache but still invalidate everyone
		// else's copy of the line — the read-modify-write owns it.
		s.invalidateOthers(proc, addr)
		s.stats.Misses++
		return s.cfg.MissLatency
	}
	if s.caches == nil || proc < 0 || proc >= len(s.caches) {
		s.stats.Misses++
		return s.cfg.MissLatency
	}
	c := s.caches[proc]
	c.accesses++
	forced := s.cfg.MissEveryN > 0 &&
		(c.accesses+int64(proc))%int64(s.cfg.MissEveryN) == 0
	idx, tag, hit := c.lookup(addr)
	if hit && !forced {
		s.stats.Hits++
		if write {
			s.invalidateOthers(proc, addr)
		}
		return s.cfg.HitLatency
	}
	if forced {
		s.stats.ForcedMiss++
		c.lines[idx] = cacheLine{} // forced misses also evict
	}
	s.stats.Misses++
	c.lines[idx] = cacheLine{valid: true, tag: tag}
	if write {
		s.invalidateOthers(proc, addr)
	}
	return s.cfg.MissLatency
}

// invalidateOthers models write-invalidate snooping: a write by proc
// invalidates the line in every other cache, so subsequent reads there
// miss. This is what makes repeated polling of a shared flag expensive —
// the hot-spot behaviour of software barriers.
func (s *System) invalidateOthers(proc int, addr int64) {
	for p, c := range s.caches {
		if p == proc || c == nil {
			continue
		}
		idx, tag, hit := c.lookup(addr)
		if hit && c.lines[idx].tag == tag {
			c.lines[idx].valid = false
			s.stats.Invalidates++
		}
	}
}

// schedule serializes the access through addr's memory module and returns
// the cycle at which the module work begins.
func (s *System) schedule(addr, now int64) int64 {
	m := addr % int64(len(s.moduleFree))
	start := now
	if s.moduleFree[m] > start {
		s.stats.QueueDelay += s.moduleFree[m] - start
		start = s.moduleFree[m]
	}
	s.moduleFree[m] = start + s.cfg.ModuleBusy
	return start
}

// Read performs a timed read. It returns the value and the cycle at which
// the value is available.
func (s *System) Read(proc int, addr, now int64) (val, done int64, err error) {
	if err := s.checkAddr(addr); err != nil {
		return 0, now, err
	}
	s.stats.Accesses++
	s.addrCounts[addr]++
	start := s.schedule(addr, now)
	lat := s.latency(proc, addr, false, false)
	return s.words[addr], start + lat, nil
}

// Write performs a timed write, returning the completion cycle.
func (s *System) Write(proc int, addr, val, now int64) (done int64, err error) {
	if err := s.checkAddr(addr); err != nil {
		return now, err
	}
	s.stats.Accesses++
	s.addrCounts[addr]++
	start := s.schedule(addr, now)
	lat := s.latency(proc, addr, true, false)
	s.words[addr] = val
	return start + lat, nil
}

// FetchAdd atomically adds delta to the word at addr, returning the old
// value and the completion cycle. Atomics bypass the cache and serialize
// at the memory module, which is why counter-based software barriers hot
// spot.
func (s *System) FetchAdd(proc int, addr, delta, now int64) (old, done int64, err error) {
	if err := s.checkAddr(addr); err != nil {
		return 0, now, err
	}
	s.stats.Accesses++
	s.stats.Atomics++
	s.addrCounts[addr]++
	start := s.schedule(addr, now)
	lat := s.latency(proc, addr, true, true)
	old = s.words[addr]
	s.words[addr] = old + delta
	return old, start + lat, nil
}

// AddrCount pairs an address with how many timed accesses touched it.
type AddrCount struct {
	Addr  int64
	Count int64
}

// HotSpots returns the k most-accessed addresses in descending order of
// access count — the experiment harness uses this to show that software
// barriers concentrate traffic on a handful of shared words while the
// hardware fuzzy barrier generates no memory traffic at all.
func (s *System) HotSpots(k int) []AddrCount {
	all := make([]AddrCount, 0, len(s.addrCounts))
	for a, c := range s.addrCounts {
		all = append(all, AddrCount{Addr: a, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Addr < all[j].Addr
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// MaxAddrCount returns the single highest access count (0 if none) — a
// scalar hot-spot metric for tables.
func (s *System) MaxAddrCount() int64 {
	var m int64
	for _, c := range s.addrCounts {
		if c > m {
			m = c
		}
	}
	return m
}
