// Package splitmix holds the splitmix64 finalizer (Steele, Lea and
// Flood, "Fast Splittable Pseudorandom Number Generators", 2014), the
// one mixer under des.Mix's stream seeds, core.ShardHint and core's
// stress schedules, barrierd.Ring's rendezvous scores and E18's epoch
// durations. Each caller keeps its own one-line pre-mix of its inputs.
// Seeds, group placement and the transcript pins all depend on the
// output, so the constants here never change.
//
// It imports nothing, so any package may depend on it, internal/core
// included.
package splitmix

// Gamma is splitmix64's state increment: 2^64 divided by the golden
// ratio, odd.
const Gamma = 0x9e3779b97f4a7c15

// Finalize is splitmix64's output function. It avalanches fully, so
// the low and high bits of the result are usable independently.
func Finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
