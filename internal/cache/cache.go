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

// Validate checks the geometry is a power-of-two set count.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets == 0 {
		return fmt.Errorf("cache %q: zero sets", c.Name)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Block is one cache line's data-array entry. Token-coherence state
// (Section V: Token Coherence, MOESI) is carried as a token count plus
// owner and dirty flags; the classic MOESI letter is derived on demand.
// Validity lives in the cache's tag array, not here: a block is valid
// exactly while its way's tag is nonzero.
type Block struct {
	Addr   mem.BlockAddr
	Tokens int
	Owner  bool // holds the owner token (data-provider responsibility)
	Dirty  bool
	VM     mem.VMID // VM identifier in the tag (virtual snooping extension)
	// Provider marks this copy as its VM's designated data provider for an
	// RO-shared (content-shared) block, so intra-VM and friend-VM requests
	// get exactly one cache response (paper Section VI.B).
	Provider bool
	lru      uint64
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
	switch {
	case b.Tokens == 0:
		return Invalid
	case b.Tokens == totalTokens && b.Dirty:
		return Modified
	case b.Tokens == totalTokens:
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
// word per way (block address + 1, 0 = empty way), blocks the matching
// data-array entries, and set s occupies [s*ways, (s+1)*ways) of both.
// Lookup scans only the tag words — one 64-byte line for an 8-way set —
// and touches the data array once, on a hit.
type Cache struct {
	cfg     Config
	tags    []mem.BlockAddr
	blocks  []Block
	ways    int
	nSets   int
	setMask uint64
	tick    uint64

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

	// jn is the armed checkpoint journal (nil outside a speculative epoch);
	// jnStore holds the allocation between epochs. See snapshot.go.
	jn      *journal
	jnStore *journal
}

// New builds a cache from cfg; it panics on invalid geometry (a
// configuration error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	return &Cache{
		cfg:     cfg,
		tags:    make([]mem.BlockAddr, nSets*cfg.Ways),
		blocks:  make([]Block, nSets*cfg.Ways),
		ways:    cfg.Ways,
		nSets:   nSets,
		setMask: uint64(nSets - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nSets }

func (c *Cache) setIndex(a mem.BlockAddr) uint64 { return uint64(a) & c.setMask }

// Lookup returns the valid block holding addr, or nil. It does not update
// LRU state; callers decide whether an access counts as a use (snoop
// probes do not).
func (c *Cache) Lookup(a mem.BlockAddr) *Block {
	s := c.setIndex(a)
	base := int(s) * c.ways
	tag := a + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			if c.jn != nil {
				// The caller may mutate the returned block in place, so the
				// hit journals its set's pre-image.
				c.jsave(s)
			}
			return &c.blocks[base+i]
		}
	}
	return nil
}

// Touch marks b most-recently used.
func (c *Cache) Touch(b *Block) {
	if c.jn != nil {
		c.jsave(c.setIndex(b.Addr))
	}
	c.tick++
	b.lru = c.tick
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
	s := c.setIndex(a)
	if c.jn != nil {
		c.jsave(s)
	}
	base := int(s) * c.ways
	tag := a + 1
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
		victim = c.invalidateWay(slot)
		evicted = true
	}
	c.tick++
	c.tags[slot] = tag
	c.blocks[slot] = Block{Addr: a, VM: vm, lru: c.tick}
	c.incResident(vm)
	if c.OnInsert != nil {
		c.OnInsert(a, vm)
	}
	return &c.blocks[slot], victim, evicted
}

// Invalidate removes b from the cache (e.g. all tokens taken by a GETX)
// and returns its final token state for the controller to forward.
func (c *Cache) Invalidate(b *Block) EvictInfo {
	s := c.setIndex(b.Addr)
	base := int(s) * c.ways
	way := -1
	for i := base; i < base+c.ways; i++ {
		if &c.blocks[i] == b {
			way = i
			break
		}
	}
	if way < 0 || c.tags[way] != b.Addr+1 {
		invalidPanic(c.cfg.Name)
	}
	if c.jn != nil {
		c.jsave(s)
	}
	return c.invalidateWay(way)
}

// invalidPanic is Invalidate's cold failure path: the block is not a valid
// way of this cache.
func invalidPanic(name string) {
	panic(fmt.Sprintf("cache %s: invalidate of invalid block", name))
}

// invalidateWay empties valid way i and fires the drop callbacks. The
// caller has journaled the way's set.
func (c *Cache) invalidateWay(i int) EvictInfo {
	b := &c.blocks[i]
	info := EvictInfo{Addr: b.Addr, Tokens: b.Tokens, Owner: b.Owner, Dirty: b.Dirty, VM: b.VM}
	// Clear before callbacks: a reentrant FlushVM from a residence trigger
	// must never see this block as still valid.
	c.tags[i] = 0
	*b = Block{}
	c.decResident(info.VM)
	if c.OnDrop != nil {
		c.OnDrop(info.Addr)
	}
	return info
}

// FlushPage invalidates every block of host page p and returns their final
// states (used when the hypervisor marks a page RO-shared: dirty lines
// must reach memory so it holds a clean copy).
func (c *Cache) FlushPage(p mem.HostPage) []EvictInfo {
	lo := mem.BlockInPage(p, 0) + 1
	hi := mem.BlockInPage(p, mem.BlocksPerPage-1) + 1
	var out []EvictInfo
	for i := range c.tags {
		if t := c.tags[i]; t >= lo && t <= hi {
			out = append(out, c.flushWay(i))
		}
	}
	return out
}

// FlushVM invalidates every block tagged with vm (the "selective flush"
// alternative discussed in Section IV.B) and returns their states.
func (c *Cache) FlushVM(vm mem.VMID) []EvictInfo {
	var out []EvictInfo
	for i := range c.tags {
		if c.tags[i] != 0 && c.blocks[i].VM == vm {
			out = append(out, c.flushWay(i))
		}
	}
	return out
}

// flushWay journals way i's set and invalidates the way. Flushes walk the
// ways in set order and re-test each as they reach it, because a drop
// callback may already have emptied a later way.
func (c *Cache) flushWay(i int) EvictInfo {
	if c.jn != nil {
		c.jsave(uint64(i / c.ways))
	}
	return c.invalidateWay(i)
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
	c.ForEachValid(func(b *Block) { c.resident[c.counterIdx(b.VM)]++ })
}

// ForEachValid calls fn for every valid block. fn receives mutable blocks,
// so an armed checkpoint journal conservatively records every set first;
// runtime callers are invariant checks and fault recovery, neither of which
// runs inside a speculative epoch, so the bulk pre-image never happens on
// the optimistic fast path.
func (c *Cache) ForEachValid(fn func(*Block)) {
	if c.jn != nil {
		c.jsaveAll()
	}
	for i := range c.tags {
		if c.tags[i] != 0 {
			fn(&c.blocks[i])
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
