package transport

// Slab carves message lists (Message.List) out of shared chunks, so a
// steady stream of sends allocates a chunk now and then instead of one
// list per message.
//
// Sharing a chunk is safe because a list handed to Send is never written
// again: Reliable keeps it for retransmission, SimNet keeps it queued
// and ChanNet hands it to another goroutine, and each only reads it. So
// the owner fills a carved list, sends it and forgets it. Every carve is
// a full slice expression s[i:j:j], so even an append to a list copies
// it rather than writing into the next list's words. A chunk is
// collected once no list carved from it is live.
//
// Each new chunk doubles the last, from slabChunkMin up to slabChunkMax
// words, so an owner that sends little holds little. A list longer than
// a quarter of the largest chunk gets an allocation of its own. A Slab is not safe
// for concurrent use; it belongs to one owner, under that owner's lock
// or on its dispatch context.
type Slab struct {
	free  []uint64 // the current chunk's uncarved words
	chunk int      // the current chunk's size
}

const (
	slabChunkMin = 8
	slabChunkMax = 1024
)

// Carve returns a zeroed list of n words.
func (s *Slab) Carve(n int) []uint64 {
	if n > len(s.free) {
		if n > slabChunkMax/4 {
			return make([]uint64, n)
		}
		s.chunk = min(max(2*s.chunk, slabChunkMin, n), slabChunkMax)
		s.free = make([]uint64, s.chunk)
	}
	l := s.free[:n:n]
	s.free = s.free[n:]
	return l
}
