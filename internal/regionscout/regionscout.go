// Package regionscout implements a RegionScout-style region-based snoop
// filter (Moshovos, ISCA 2005) as an alternative token.Router, so the
// paper's qualitative related-work comparison — VM boundaries as natural
// snoop domains versus hardware region-tracking tables — can be made
// quantitative on the same machine.
//
// Each core keeps a Not-Shared-Region Table (NSRT) of regions it has
// verified no other cache holds; requests to those regions go straight to
// memory. Discovery piggybacks on broadcasts: when a request finds no
// other cache holding any block of the region, the region enters the
// requester's NSRT. Any external request for a region knocks it out of
// every other core's NSRT (someone else is about to cache it).
//
// Two idealizations, both favoring RegionScout: region presence is
// observed at issue time (the real design learns it from the response
// bits of the same broadcast), and the Cached-Region-Hash is exact (no
// false sharing from hash conflicts). Even so, virtual snooping wins on
// actively shared regions — the VM map bounds them to 4 cores while
// RegionScout must broadcast — which is exactly the paper's argument.
package regionscout

import (
	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/token"
)

// Region is a region number (block address >> shift).
type Region uint64

// Config shapes the filter.
type Config struct {
	// RegionBlocks is the region size in blocks (power of two). The
	// original paper evaluates 1-16 KB regions; the default is 4 KB
	// (64 blocks), matching the page granularity virtual snooping gets
	// for free from the PTE bits.
	RegionBlocks int
	// NSRTEntries bounds each core's not-shared-region table.
	NSRTEntries int
}

// DefaultConfig is 4 KB regions with a 64-entry NSRT.
func DefaultConfig() Config { return Config{RegionBlocks: 64, NSRTEntries: 64} }

// Stats counts filter events.
type Stats struct {
	NSRTHits    uint64 // requests sent memory-direct
	Broadcasts  uint64 // requests that had to snoop everyone
	Discoveries uint64 // regions learned not-shared
	Knockouts   uint64 // NSRT entries invalidated by external requests
}

// nsrt is a small LRU table of not-shared regions, one per core.
type nsrt struct {
	cap   int
	items map[Region]uint64
	tick  uint64
}

func newNSRT(capacity int) *nsrt {
	return &nsrt{cap: capacity, items: make(map[Region]uint64)}
}

func (t *nsrt) contains(r Region) bool {
	if _, ok := t.items[r]; ok {
		t.tick++
		t.items[r] = t.tick
		return true
	}
	return false
}

func (t *nsrt) insert(r Region) {
	t.tick++
	t.items[r] = t.tick
	if len(t.items) <= t.cap {
		return
	}
	var oldest Region
	var oldestTick uint64 = ^uint64(0)
	for reg, tk := range t.items { //lint:ordered ticks are a per-table monotonic counter, so every entry's tick is unique and the minimum is unique — the evicted region is the same whatever the visit order
		if tk < oldestTick {
			oldest, oldestTick = reg, tk
		}
	}
	delete(t.items, oldest)
}

func (t *nsrt) remove(r Region) bool {
	if _, ok := t.items[r]; ok {
		delete(t.items, r)
		return true
	}
	return false
}

// Filter is the RegionScout router. It maintains exact per-core region
// presence counts via the cache insert/drop hooks. A broadcast scans every
// other core's presence at once, so it learns a not-shared region, and
// knocks the region out of the other NSRTs, as the request is sent.
type Filter struct {
	cfg     Config
	shift   uint
	present []map[Region]int
	tables  []*nsrt
	stats   Stats
	// route holds the set Route returns, overwritten by every call.
	route []uint64
}

// New builds the filter over cores cores, core i being mesh endpoint i,
// and wires presence tracking into their L2 caches. It must own the
// caches' OnInsert/OnDrop hooks; pass chain functions if other subscribers
// exist.
func New(cfg Config, cores int, caches []*cache.Cache) *Filter {
	if cfg.RegionBlocks <= 0 || cfg.RegionBlocks&(cfg.RegionBlocks-1) != 0 {
		panic("regionscout: RegionBlocks must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.RegionBlocks {
		shift++
	}
	f := &Filter{
		cfg:     cfg,
		shift:   shift,
		present: make([]map[Region]int, cores),
		tables:  make([]*nsrt, cores),
		route:   make([]uint64, (cores+63)/64),
	}
	for i := 0; i < cores; i++ {
		f.present[i] = make(map[Region]int)
		f.tables[i] = newNSRT(cfg.NSRTEntries)
		if caches != nil && caches[i] != nil {
			f.wire(i, caches[i])
		}
	}
	return f
}

func (f *Filter) wire(i int, c *cache.Cache) {
	prevIns := c.OnInsert
	c.OnInsert = func(a mem.BlockAddr, vm mem.VMID) {
		f.RecordFill(i, a)
		if prevIns != nil {
			prevIns(a, vm)
		}
	}
	prevDrop := c.OnDrop
	c.OnDrop = func(a mem.BlockAddr) {
		f.RecordDrop(i, a)
		if prevDrop != nil {
			prevDrop(a)
		}
	}
}

// RegionOf maps a block address to its region.
func (f *Filter) RegionOf(a mem.BlockAddr) Region { return Region(uint64(a) >> f.shift) }

// RecordFill notes that core i now caches a block of the region.
func (f *Filter) RecordFill(i int, a mem.BlockAddr) {
	f.present[i][f.RegionOf(a)]++
}

// RecordDrop notes that core i dropped a block of the region.
func (f *Filter) RecordDrop(i int, a mem.BlockAddr) {
	r := f.RegionOf(a)
	f.present[i][r]--
	if f.present[i][r] <= 0 {
		delete(f.present[i], r)
	}
}

// Present returns core i's cached-block count for the region (tests).
func (f *Filter) Present(i int, r Region) int { return f.present[i][r] }

// NSRTContains reports whether core i's NSRT holds r (tests).
func (f *Filter) NSRTContains(i int, r Region) bool {
	_, ok := f.tables[i].items[r]
	return ok
}

// Totals returns the whole-run counters.
func (f *Filter) Totals() Stats { return f.stats }

// Route implements token.Router: memory only for a known not-shared
// region, else every other core, as the filter's route words (valid until
// its next Route call).
func (f *Filter) Route(info token.RouteInfo) (first, second []uint64) {
	r := f.RegionOf(info.Addr)
	me := info.Requester
	st := &f.stats

	if info.Attempt == 1 && f.tables[me].contains(r) {
		// Known not-shared: memory can serve it without snooping.
		st.NSRTHits++
		return nil, nil
	}

	// Broadcast; the responses' region bits tell us whether anyone else
	// caches the region.
	st.Broadcasts++
	out := f.route
	clear(out)
	shared := false
	for i := range f.present {
		if i == me {
			continue
		}
		out[i>>6] |= 1 << (uint(i) & 63)
		if f.present[i][r] > 0 {
			shared = true
		}
		// The external request invalidates this core's not-shared belief:
		// the requester is about to cache the region.
		if f.tables[i].remove(r) {
			st.Knockouts++
		}
	}
	if !shared {
		f.tables[me].insert(r)
		st.Discoveries++
	}
	return out, nil
}
