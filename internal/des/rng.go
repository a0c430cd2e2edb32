package des

import "fuzzybarrier/internal/splitmix"

// RNG is the xorshift64* generator everything seeded in this repo
// draws from: internal/cluster (per-node work and link streams),
// transport.SimNet (the network stream), and internal/workload's drift
// and branch generators with the experiments built on them.
type RNG struct{ state uint64 }

// Mix derives an independent stream seed from (seed, salt) via one
// splitmix64 step, so per-node, per-endpoint and per-network streams
// never collide even for adjacent seeds.
//
// The finalizer is splitmix.Finalize, shared with core's ShardHint and
// stress streams, barrierd's rendezvous scores and E18. Only the pre-mix
// is Mix's own: it adds salt·Gamma to the seed (barrierd.rdvmix XORs its
// inputs instead), and every seeded pin hashes the result.
func Mix(seed, salt uint64) uint64 {
	return splitmix.Finalize(seed + salt*splitmix.Gamma)
}

// NewRNG returns a generator for seed; 0, the one state xorshift cannot
// leave, is replaced by a fixed odd constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Next returns the next 64 bits of the stream.
func (r *RNG) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// IntN returns a value in [0, n), or 0 for n <= 0.
func (r *RNG) IntN(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Next() % uint64(n))
}

// Float returns a value in [0, 1).
func (r *RNG) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
