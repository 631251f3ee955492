package cache

import "vsnoop/internal/mem"

// Holders is a presence bitset shared by the caches of one machine: bit
// (block, member) is set exactly while the member cache's tag array holds
// the block. Insert and invalidateWay, the only two writers of a tag, keep
// it, so it equals the tags by construction. A snoop that asks Holds of an
// absent block then tests one bit, and a multicast reads every member's
// bit for its block at once (Lane), instead of scanning sets of tag words.
//
// It is simulator bookkeeping, not a modeled snoop filter: the snoop still
// counts as one tag lookup at its destination.
//
// Each block owns a lane of 2^shift bits, the member count rounded up to a
// power of two (16 bits for a 16-core machine). The lanes live in chunks
// of holderChunkWords words, materialized on the first Insert that touches
// them, so the table costs only the block ranges the caches have ever
// held.
type Holders struct {
	shift    uint
	laneMask uint64 // the low 2^shift bits: one lane
	members  int
	chunks   []*[holderChunkWords]uint64
}

const (
	holderChunkShift = 10 // 8 KiB chunks
	holderChunkWords = 1 << holderChunkShift
)

// NewHolders builds an empty bitset for members caches.
func NewHolders(members int) *Holders {
	if members <= 0 {
		panic("cache: holder bitset with no members")
	}
	h := &Holders{members: members}
	for 1<<h.shift < members {
		h.shift++
	}
	// A 64-bit lane masks to every bit (1<<64 is 0 in Go).
	h.laneMask = uint64(1)<<(uint64(1)<<h.shift) - 1
	return h
}

// Lane returns block a's lane: bit m is set exactly while member m holds
// the block. The member count must be at most 64, so a lane fits one word.
func (h *Holders) Lane(a mem.BlockAddr) uint64 {
	i := uint64(a) << h.shift
	w := i >> 6
	c := w >> holderChunkShift
	if c >= uint64(len(h.chunks)) {
		return 0
	}
	ch := h.chunks[c]
	if ch == nil {
		return 0
	}
	return ch[w&(holderChunkWords-1)] >> (i & 63) & h.laneMask
}

// Members returns the member count the bitset was built for.
func (h *Holders) Members() int { return h.members }

// bit returns the bitset position of (a, member).
func (h *Holders) bit(a mem.BlockAddr, member uint64) uint64 {
	return uint64(a)<<h.shift | member
}

// has reports whether bit (a, member) is set.
func (h *Holders) has(a mem.BlockAddr, member uint64) bool {
	i := h.bit(a, member)
	w := i >> 6
	c := w >> holderChunkShift
	if c >= uint64(len(h.chunks)) {
		return false
	}
	ch := h.chunks[c]
	if ch == nil {
		return false
	}
	return ch[w&(holderChunkWords-1)]>>(i&63)&1 != 0
}

// set sets bit (a, member), materializing its chunk on first touch.
func (h *Holders) set(a mem.BlockAddr, member uint64) {
	i := h.bit(a, member)
	w := i >> 6
	c := w >> holderChunkShift
	if c >= uint64(len(h.chunks)) || h.chunks[c] == nil {
		h.grow(c)
	}
	h.chunks[c][w&(holderChunkWords-1)] |= 1 << (i & 63)
}

// clear clears bit (a, member). The bit was set, so its chunk exists.
func (h *Holders) clear(a mem.BlockAddr, member uint64) {
	i := h.bit(a, member)
	w := i >> 6
	h.chunks[w>>holderChunkShift][w&(holderChunkWords-1)] &^= 1 << (i & 63)
}

// grow materializes chunk c: the cold half of set.
func (h *Holders) grow(c uint64) {
	for uint64(len(h.chunks)) <= c {
		h.chunks = append(h.chunks, nil)
	}
	h.chunks[c] = new([holderChunkWords]uint64)
}
