package core

import (
	"unsafe"

	"fuzzybarrier/internal/splitmix"
)

// ShardHint returns the caller's routing hash: splitmix64 over a
// per-goroutine seed (the caller's stack address). Distinct goroutines
// occupy distinct stacks, so a stable worker group spreads across
// whatever structure the hash is reduced into — TreeBarrier leaves,
// HierBarrier shards — while each worker keeps re-hitting the same warm
// home from the same call site. Both barriers route through this one
// function so the hash quality is audited in one place
// (TestShardHintDistribution).
//
// The value is a *hint*, never a correctness input: a goroutine's stack
// can move (stack growth copies it) and different call depths on the
// same stack hash differently, so callers must tolerate the hint
// changing between calls. (The address is only hashed, never
// dereferenced or retained.)
func ShardHint() uint64 {
	var probe byte
	return splitmix64(uint64(uintptr(unsafe.Pointer(&probe))))
}

// splitmix64 is one splitmix64 step from state z: add the gamma, then
// the shared finalizer, whose full avalanche makes both the low bits
// (shard selection) and the high bits (leaf selection) of the result
// usable independently. Stack bases are allocation-size aligned, so the
// raw address must be mixed before any reduction or most bits collide.
func splitmix64(z uint64) uint64 {
	return splitmix.Finalize(z + splitmix.Gamma)
}
