// Package cache implements the set-associative cache model used for the
// private L1 and L2 caches: LRU replacement, per-block token-coherence
// state (token count, owner token, dirty bit), and the two hardware
// extensions virtual snooping adds (paper Section IV.B):
//
//   - a VM identifier in every cache tag, and
//   - per-VM cache residence counters that count how many valid blocks each
//     VM has in the cache. When a VM's counter reaches zero, the core can
//     safely be removed from that VM's vCPU map.
package cache

import (
	"fmt"

	"vsnoop/internal/mem"
)

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLatency uint64 // cycles
}

// Validate checks the geometry is a whole, power-of-two number of sets.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	setBytes := c.Ways * c.BlockBytes
	if c.SizeBytes%setBytes != 0 {
		return fmt.Errorf("cache %q: size %d is not a whole number of %d-byte sets", c.Name, c.SizeBytes, setBytes)
	}
	sets := c.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Block is one cache line's data-array entry. Token-coherence state
// (Section V: Token Coherence, MOESI) is carried as a token count plus
// owner and dirty flags; the classic MOESI letter is derived on demand.
// Validity and the address live in the cache's tag array, not here: a
// block is valid exactly while its way's tag is nonzero, and its address
// is the tag joined with the set index. A block is 12 bytes.
type Block struct {
	// Tokens fits int16 because system.Config.Validate bounds the tokens
	// per block, Cores+1, by math.MaxInt16.
	Tokens int16
	VM     mem.VMID // VM identifier in the tag (virtual snooping extension)
	Owner  bool     // holds the owner token (data-provider responsibility)
	Dirty  bool
	// Provider marks this copy as its VM's designated data provider for an
	// RO-shared (content-shared) block, so intra-VM and friend-VM requests
	// get exactly one cache response (paper Section VI.B).
	Provider bool
	lru      uint32 // the cache's tick at the last use; see Cache.stamp
}

// State is the derived MOESI state of a block.
type State uint8

const (
	Invalid State = iota
	Shared
	Owned
	Exclusive
	Modified
)

func (s State) String() string {
	return [...]string{"I", "S", "O", "E", "M"}[s]
}

// StateOf derives the MOESI letter from token state given the total number
// of tokens per block in the system. An empty way is zeroed, so it derives
// as Invalid like any token-less block.
func StateOf(b *Block, totalTokens int) State {
	switch tokens := int(b.Tokens); {
	case tokens == 0:
		return Invalid
	case tokens == totalTokens && b.Dirty:
		return Modified
	case tokens == totalTokens:
		return Exclusive
	case b.Owner:
		return Owned
	default:
		return Shared
	}
}

// EvictInfo describes a block displaced from the cache; the coherence
// controller must return its tokens (and dirty data) to memory.
type EvictInfo struct {
	Addr   mem.BlockAddr
	Tokens int
	Owner  bool
	Dirty  bool
	VM     mem.VMID
}

// Cache is one set-associative cache. It is not safe for concurrent use;
// the simulation engine is single-threaded by design.
//
// Tags and data are split the way hardware builds them: tags holds one
// 32-bit word per way, blocks the matching data-array entries, and set s
// occupies [s*ways, (s+1)*ways) of both. A tag word stores only the
// address bits above the set index, plus one (0 = empty way); the index
// bits are implied by the way's position, so a block keeps no copy of its
// address. A way costs 16 bytes. Lookup scans only the tag words — half a
// 64-byte line for an 8-way set — and touches the data array once, on a
// hit.
type Cache struct {
	cfg     Config
	tags    []uint32
	blocks  []Block
	ways    int
	nSets   int
	setBits uint
	setMask uint64
	tick    uint32

	// holders, when set (ShareHolders), is the presence bitset this cache
	// shares with the other caches of its snoop domain; member is this
	// cache's bit in each block's lane.
	holders *Holders
	member  uint64

	// resident is the per-VM residence counter file, a flat array indexed
	// by mem.DenseVM (the hardware analogue: one small counter register per
	// VM, not an associative structure). It grows on first touch of a VM.
	resident []int

	// OnResidenceZero, if set, fires when a VM's residence counter drops
	// to zero (the trigger for vCPU-map removal in the counter policy).
	OnResidenceZero func(vm mem.VMID)
	// OnResidenceBelow, if set, fires when a VM's counter drops strictly
	// below Threshold (the counter-threshold policy trigger).
	OnResidenceBelow func(vm mem.VMID, count int)
	Threshold        int

	// OnDrop, if set, fires whenever a valid block leaves the cache
	// (eviction or invalidation). The system layer uses it to keep the L1
	// a strict subset of the L2 (inclusion).
	OnDrop func(a mem.BlockAddr)

	// OnInsert, if set, fires when a block becomes valid (region-presence
	// tracking for region-based snoop filters).
	OnInsert func(a mem.BlockAddr, vm mem.VMID)

	// OnResidenceUnderflow, if set, turns a residence-counter underflow from
	// a fatal bug into a recoverable fault: the counter is clamped, all
	// counters are recounted from the tags, and the hook fires so the filter
	// can suspect the VM's map. When nil (fault-free runs) underflow remains
	// a panic, because then it can only be a simulator bug.
	OnResidenceUnderflow func(vm mem.VMID)
}

// New builds a cache from cfg; it panics on invalid geometry (a
// configuration error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint32, nSets*cfg.Ways),
		blocks:  make([]Block, nSets*cfg.Ways),
		ways:    cfg.Ways,
		nSets:   nSets,
		setMask: uint64(nSets - 1),
	}
	for 1<<c.setBits < nSets {
		c.setBits++
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nSets }

func (c *Cache) setIndex(a mem.BlockAddr) uint64 { return uint64(a) & c.setMask }

// tagLimit bounds the address bits above the set index: they must leave
// room for the +1 that keeps tag 0 for an empty way.
const tagLimit = 1<<32 - 1

// tagOf returns addr's tag word. ok is false for an address whose bits
// above the set index do not fit a tag word; no cache can hold it.
// (setBits is below 64; masking it lets the compiler drop the shift's
// out-of-range handling.)
func (c *Cache) tagOf(a mem.BlockAddr) (tag uint32, ok bool) {
	hi := uint64(a) >> (c.setBits & 63)
	return uint32(hi) + 1, hi < tagLimit
}

// addrOf returns the address held by a valid way with tag word tag in set s.
func (c *Cache) addrOf(tag uint32, s uint64) mem.BlockAddr {
	return mem.BlockAddr(uint64(tag-1)<<(c.setBits&63) | s)
}

// Lookup returns the valid block holding addr, or nil. It does not update
// LRU state; callers decide whether an access counts as a use (snoop
// probes do not).
func (c *Cache) Lookup(a mem.BlockAddr) *Block {
	tag, ok := c.tagOf(a)
	if !ok {
		return nil
	}
	base := int(c.setIndex(a)) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return &c.blocks[base+i]
		}
	}
	return nil
}

// Holds reports whether addr is valid in this cache, the same answer as
// Lookup(addr) != nil. With a shared holder bitset it is one bit test that
// leaves the tag array untouched; without one it asks the tags.
func (c *Cache) Holds(a mem.BlockAddr) bool {
	if h := c.holders; h != nil {
		return h.has(a, c.member)
	}
	return c.Lookup(a) != nil
}

// ShareHolders makes c keep bit member of h's block lanes equal to its tag
// array. Call once, before the cache is first used; member must be below
// the member count h was built for, and unique among the caches sharing h.
func (c *Cache) ShareHolders(h *Holders, member int) {
	if member < 0 || member >= h.members || c.holders != nil || c.tick != 0 {
		panic(fmt.Sprintf("cache %s: bad holder membership %d of %d", c.cfg.Name, member, h.members))
	}
	c.holders, c.member = h, uint64(member)
}

// Touch marks b most-recently used.
func (c *Cache) Touch(b *Block) { b.lru = c.stamp() }

// stamp advances the tick and returns it. LRU stamps are 32 bits: when the
// tick wraps, renumber first makes every valid way's stamp its rank within
// its set, which keeps every set's order, and so every victim choice, as
// 64-bit stamps would have it.
func (c *Cache) stamp() uint32 {
	c.tick++
	if c.tick == 0 {
		c.renumber()
	}
	return c.tick
}

// renumber is stamp's cold wrap path. It ranks each set's valid ways 1..n
// by stamp, ties in way order as Insert's victim scan breaks them, and
// restarts the tick above every rank.
func (c *Cache) renumber() {
	ranks := make([]uint32, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		tags, set := c.tags[base:base+c.ways], c.blocks[base:base+c.ways]
		for i := range set {
			ranks[i] = 1
			for j := range set {
				if tags[j] != 0 && (set[j].lru < set[i].lru || set[j].lru == set[i].lru && j < i) {
					ranks[i]++
				}
			}
		}
		for i := range set {
			if tags[i] != 0 {
				set[i].lru = ranks[i]
			}
		}
	}
	c.tick = uint32(c.ways) + 1
}

// Resident returns the residence counter for vm: the number of valid
// blocks tagged with that VM.
func (c *Cache) Resident(vm mem.VMID) int {
	i := mem.DenseVM(vm)
	if i >= len(c.resident) {
		return 0
	}
	return c.resident[i]
}

// ResidentVMs returns every VM with a nonzero residence counter, in
// counter-file order (deterministic).
func (c *Cache) ResidentVMs() []mem.VMID {
	out := make([]mem.VMID, 0, len(c.resident))
	for i, n := range c.resident {
		if n > 0 {
			out = append(out, mem.VMFromDense(i))
		}
	}
	return out
}

// counterIdx returns the counter-file slot for vm, growing the file on a
// VM's first touch (new VMs appear rarely: VM creation, fault injection).
func (c *Cache) counterIdx(vm mem.VMID) int {
	i := mem.DenseVM(vm)
	for i >= len(c.resident) {
		c.resident = append(c.resident, 0)
	}
	return i
}

func (c *Cache) incResident(vm mem.VMID) { c.resident[c.counterIdx(vm)]++ }

func (c *Cache) decResident(vm mem.VMID) {
	i := c.counterIdx(vm)
	c.resident[i]--
	n := c.resident[i]
	if n < 0 {
		if c.OnResidenceUnderflow == nil {
			panic(fmt.Sprintf("cache %s: residence counter for VM %d underflowed", c.cfg.Name, vm))
		}
		c.RecountResidence()
		n = c.resident[i]
		c.OnResidenceUnderflow(vm)
	}
	if n == 0 && c.OnResidenceZero != nil {
		c.OnResidenceZero(vm)
	}
	if c.OnResidenceBelow != nil && n < c.Threshold {
		c.OnResidenceBelow(vm, n)
	}
}

// Insert places addr into the cache tagged with vm, evicting the LRU
// victim of the set if no way is free. The new block starts with zero
// tokens; the coherence controller fills token state as responses arrive.
// evicted reports whether victim describes a displaced valid block.
func (c *Cache) Insert(a mem.BlockAddr, vm mem.VMID) (b *Block, victim EvictInfo, evicted bool) {
	tag, ok := c.tagOf(a)
	if !ok {
		tagRangePanic(c.cfg.Name, a)
	}
	s := c.setIndex(a)
	base := int(s) * c.ways
	slot := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			panic(fmt.Sprintf("cache %s: double insert of block %d", c.cfg.Name, a))
		}
		if t == 0 && slot < 0 {
			slot = base + i
		}
	}
	if slot < 0 {
		slot = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.blocks[i].lru < c.blocks[slot].lru {
				slot = i
			}
		}
		victim = c.invalidateWay(slot, s)
		evicted = true
	}
	lru := c.stamp()
	c.tags[slot] = tag
	if c.holders != nil {
		c.holders.set(a, c.member)
	}
	c.blocks[slot] = Block{VM: vm, lru: lru}
	c.incResident(vm)
	if c.OnInsert != nil {
		c.OnInsert(a, vm)
	}
	return &c.blocks[slot], victim, evicted
}

// tagRangePanic is Insert's cold failure path: addr's bits above the set
// index do not fit a tag word, and truncating them would alias another
// block.
func tagRangePanic(name string, a mem.BlockAddr) {
	panic(fmt.Sprintf("cache %s: block %d is beyond the 32-bit tag range", name, a))
}

// Invalidate removes b, the block holding a, from the cache (e.g. all
// tokens taken by a GETX) and returns its final token state for the
// controller to forward. It panics unless b is the valid block Lookup(a)
// returns.
func (c *Cache) Invalidate(a mem.BlockAddr, b *Block) EvictInfo {
	tag, ok := c.tagOf(a)
	s := c.setIndex(a)
	base := int(s) * c.ways
	if ok {
		for i, t := range c.tags[base : base+c.ways] {
			if t == tag && &c.blocks[base+i] == b {
				return c.invalidateWay(base+i, s)
			}
		}
	}
	invalidPanic(c.cfg.Name)
	return EvictInfo{}
}

// invalidPanic is Invalidate's cold failure path: the block is not a valid
// way of this cache holding the given address.
func invalidPanic(name string) {
	panic(fmt.Sprintf("cache %s: invalidate of invalid block", name))
}

// invalidateWay empties valid way i of set s and fires the drop callbacks.
func (c *Cache) invalidateWay(i int, s uint64) EvictInfo {
	b := &c.blocks[i]
	info := EvictInfo{Addr: c.addrOf(c.tags[i], s), Tokens: int(b.Tokens), Owner: b.Owner, Dirty: b.Dirty, VM: b.VM}
	// Clear before callbacks: a reentrant FlushVM from a residence trigger
	// must never see this block as still valid.
	c.tags[i] = 0
	if c.holders != nil {
		c.holders.clear(info.Addr, c.member)
	}
	*b = Block{}
	c.decResident(info.VM)
	if c.OnDrop != nil {
		c.OnDrop(info.Addr)
	}
	return info
}

// FlushVM invalidates every block tagged with vm (the "selective flush"
// alternative discussed in Section IV.B) and returns their states. It walks
// the ways in order and re-tests each as it reaches it, because a drop
// callback may already have emptied a later way.
func (c *Cache) FlushVM(vm mem.VMID) []EvictInfo {
	var out []EvictInfo
	for s := 0; s < c.nSets; s++ {
		for i := s * c.ways; i < (s+1)*c.ways; i++ {
			if c.tags[i] != 0 && c.blocks[i].VM == vm {
				out = append(out, c.invalidateWay(i, uint64(s)))
			}
		}
	}
	return out
}

// CorruptResidence adds delta to vm's residence counter without touching
// any tags — a deliberate soft-error injection (internal/fault). A negative
// delta models the bit-flip that later surfaces as an underflow; a positive
// delta models a stuck count that delays map removal (performance-only, per
// the paper's safety argument).
func (c *Cache) CorruptResidence(vm mem.VMID, delta int) {
	c.resident[c.counterIdx(vm)] += delta
}

// RecountResidence rebuilds every residence counter from the cache tags,
// the recovery action after a detected counter fault.
func (c *Cache) RecountResidence() {
	for i := range c.resident {
		c.resident[i] = 0
	}
	c.ForEachValid(func(_ mem.BlockAddr, b *Block) { c.resident[c.counterIdx(b.VM)]++ })
}

// ForEachValid calls fn for every valid block with the address it holds,
// in way order.
func (c *Cache) ForEachValid(fn func(a mem.BlockAddr, b *Block)) {
	for s := 0; s < c.nSets; s++ {
		for i := s * c.ways; i < (s+1)*c.ways; i++ {
			if t := c.tags[i]; t != 0 {
				fn(c.addrOf(t, uint64(s)), &c.blocks[i])
			}
		}
	}
}

// CountValid returns the number of valid blocks (for tests/invariants).
func (c *Cache) CountValid() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
