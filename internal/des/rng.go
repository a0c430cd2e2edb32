package des

// RNG is the xorshift64* generator everything seeded in this repo
// draws from: internal/cluster (per-node work and link streams),
// transport.SimNet (the network stream), and internal/workload's drift
// and branch generators with the experiments built on them.
type RNG struct{ state uint64 }

// Mix derives an independent stream seed from (seed, salt) via one
// splitmix64 step, so per-node, per-endpoint and per-network streams
// never collide even for adjacent seeds.
//
// Two look-alikes are deliberately not folded in. barrierd.rdvmix XORs
// its inputs where Mix adds — a different function, and shard placement
// depends on its values. core.splitmix64/mix64 stay in core, which must
// not import a simulator package.
func Mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
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
