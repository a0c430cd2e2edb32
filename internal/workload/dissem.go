package workload

import (
	"fmt"

	"fuzzybarrier/internal/isa"
)

// DisseminationBarrierLoop is the logarithmic software barrier of the
// paper's Section 1 ("for the best possible software implementation,
// logarithmically"), written in simulator instructions: ⌈log2 P⌉ rounds
// per episode in which processor i bumps a flag belonging to processor
// (i + 2^r) mod P and spins on its own round-r flag. Every flag is a
// distinct shared word, so — unlike the centralized counter — no address
// hot-spots and, with interleaved memory modules, the rounds of different
// processors proceed in parallel.
//
// Flags are per-(processor, round) episode counters laid out round-major
// at FlagBase + round*P + proc, so that within any round the P flags fall
// on P consecutive addresses — distinct memory modules on an interleaved
// system, keeping the rounds conflict-free. The signal is a fetch-and-add
// of 1 and the wait spins until the counter reaches the episode number.
// All addresses are compile-time constants per processor, so the
// generated (unrolled) program needs no address arithmetic at all.
//
// Register use: r1 = 1, r4 = spin scratch, r5 = episode target.
type DisseminationBarrierLoop struct {
	Self     int
	Procs    int
	Work     []int64 // per-episode work (length = episodes)
	FlagBase int64   // first flag address (default 16)
}

// Rounds returns ⌈log2 P⌉ (minimum 1).
func (c DisseminationBarrierLoop) Rounds() int {
	r := 0
	for v := 1; v < c.Procs; v <<= 1 {
		r++
	}
	if r == 0 {
		r = 1
	}
	return r
}

// Program builds the machine program.
func (c DisseminationBarrierLoop) Program() (*isa.Program, error) {
	if c.Procs < 1 || c.Self < 0 || c.Self >= c.Procs {
		return nil, fmt.Errorf("workload: bad self/procs %d/%d", c.Self, c.Procs)
	}
	if len(c.Work) == 0 {
		return nil, fmt.Errorf("workload: DisseminationBarrierLoop needs at least one episode")
	}
	base := c.FlagBase
	if base == 0 {
		base = 16
	}
	rounds := c.Rounds()
	flagAddr := func(proc, round int) int64 {
		return base + int64(round*c.Procs+proc)
	}

	b := isa.NewBuilder(fmt.Sprintf("dissem-p%d", c.Self))
	b.Ldi(1, 1).Comment("constant 1")
	for e, w := range c.Work {
		if w > 0 {
			b.Work(w).Comment("episode %d work", e)
		}
		target := int64(e + 1)
		b.Ldi(5, target).Comment("episode %d target", e)
		for r := 0; r < rounds; r++ {
			partner := (c.Self + (1 << uint(r))) % c.Procs
			b.Ldi(6, flagAddr(partner, r))
			b.Faa(7, 6, 0, 1).Comment("signal P%d round %d", partner, r)
			spin := fmt.Sprintf("spin_%d_%d", e, r)
			b.Ldi(8, flagAddr(c.Self, r))
			b.Label(spin).Ld(4, 8, 0).Comment("poll own round-%d flag", r)
			b.CondBr(isa.BLT, 4, 5, spin)
		}
	}
	b.Halt()
	return b.Build()
}
