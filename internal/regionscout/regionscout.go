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
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
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

// nsrt is a small LRU table of not-shared regions, owned by its core's
// snoop domain.
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
// presence counts via the cache insert/drop hooks.
//
// Every core's NSRT and presence map is owned by that core's snoop domain
// (Partition; New starts with one domain holding every core): local-domain
// presence checks and knockouts stay synchronous, while remote domains are
// consulted through probe events, each delayed by its source domain's
// cross-domain horizon (mesh.Network.CrossHorizons). The NSRT insert is
// deferred until every probe replies — a stale not-shared belief is safe
// because a memory-direct miss that finds the tokens elsewhere simply
// retries attempt 2 as a broadcast. With one domain there are no probes,
// and a broadcast learns the region at once.
type Filter struct {
	cfg       Config
	shift     uint
	coreNodes []mesh.NodeID
	// present and tables are per-core state owned by the core's snoop
	// domain (coreDom[i]).
	present []map[Region]int
	tables  []*nsrt

	coreDom  []int32
	domCores [][]int
	eng      *sim.Engine
	crossHor []sim.Cycle
	// stats and pools are indexed by domain; each entry is owned by that
	// domain.
	stats   []Stats
	pools   [][]*probe
	probeFn sim.HandlerFn
	replyFn sim.HandlerFn
}

// probe is one in-flight cross-domain region scan. The immutable fields
// (region, me, srcDom) are written before the probe is sent and only read
// by remote handlers; remaining/shared are owned by the source domain.
type probe struct {
	region    Region
	me        int
	srcDom    int32
	remaining int
	shared    bool
}

// New builds the filter over the given cores and wires presence tracking
// into their L2 caches. It must own the caches' OnInsert/OnDrop hooks;
// pass chain functions if other subscribers exist.
func New(cfg Config, coreNodes []mesh.NodeID, caches []*cache.Cache) *Filter {
	if cfg.RegionBlocks <= 0 || cfg.RegionBlocks&(cfg.RegionBlocks-1) != 0 {
		panic("regionscout: RegionBlocks must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != cfg.RegionBlocks {
		shift++
	}
	f := &Filter{
		cfg:       cfg,
		shift:     shift,
		coreNodes: coreNodes,
		present:   make([]map[Region]int, len(coreNodes)),
		tables:    make([]*nsrt, len(coreNodes)),
	}
	all := make([]int, len(coreNodes))
	for i := range coreNodes {
		all[i] = i
		f.present[i] = make(map[Region]int)
		f.tables[i] = newNSRT(cfg.NSRTEntries)
		if caches != nil && caches[i] != nil {
			f.wire(i, caches[i])
		}
	}
	// One domain sends no probes, so it needs no engine or horizons.
	f.Partition(make([]int32, len(coreNodes)), [][]int{all}, nil, nil)
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

// Partition cuts the filter's state into domains: coreDom maps each core to
// its snoop domain, domCores lists each domain's cores, eng is the
// machine's engine and crossHor gives each domain's cross-domain horizon.
// Call at setup, before any routing happens.
func (f *Filter) Partition(coreDom []int32, domCores [][]int, eng *sim.Engine, crossHor []sim.Cycle) {
	f.coreDom = coreDom
	f.domCores = domCores
	f.eng = eng
	f.crossHor = crossHor
	f.stats = make([]Stats, len(domCores))
	f.pools = make([][]*probe, len(domCores))
	f.probeFn = f.handleProbe
	f.replyFn = f.handleReply
}

// Totals returns the whole-run counters, summed over the domains.
func (f *Filter) Totals() Stats {
	var t Stats
	for i := range f.stats {
		t.NSRTHits += f.stats[i].NSRTHits
		t.Broadcasts += f.stats[i].Broadcasts
		t.Discoveries += f.stats[i].Discoveries
		t.Knockouts += f.stats[i].Knockouts
	}
	return t
}

// getProbe pops a probe from domain d's freelist (or allocates one).
func (f *Filter) getProbe(d int32) *probe {
	pool := f.pools[d]
	if n := len(pool); n > 0 {
		p := pool[n-1]
		f.pools[d] = pool[:n-1]
		return p
	}
	return &probe{}
}

// handleProbe runs in domain u: scan its cores for region presence, knock
// the region out of their NSRTs, and reply to the source domain.
func (f *Filter) handleProbe(arg interface{}, u uint64) {
	p := arg.(*probe)
	d := int(u)
	st := &f.stats[d]
	shared := uint64(0)
	for _, i := range f.domCores[d] {
		if f.present[i][p.region] > 0 {
			shared = 1
		}
		if f.tables[i].remove(p.region) {
			st.Knockouts++
		}
	}
	f.eng.ScheduleFnAtDom(f.eng.Now()+f.crossHor[d], p.srcDom, f.replyFn, p, shared)
}

// handleReply runs in the probe's source domain: fold the remote shared
// bit, and on the last reply learn the region (if nobody held it) and
// recycle the probe.
func (f *Filter) handleReply(arg interface{}, u uint64) {
	p := arg.(*probe)
	if u != 0 {
		p.shared = true
	}
	p.remaining--
	if p.remaining > 0 {
		return
	}
	if !p.shared {
		f.tables[p.me].insert(p.region)
		f.stats[p.srcDom].Discoveries++
	}
	f.pools[p.srcDom] = append(f.pools[p.srcDom], p)
}

// Route implements token.Router, appending the set to buf[:0]: it is
// invoked through the interface from whichever domain's coherence
// controller is requesting.
func (f *Filter) Route(info token.RouteInfo, buf []mesh.NodeID) []mesh.NodeID {
	r := f.RegionOf(info.Addr)
	me := info.Requester
	sd := f.coreDom[me]
	st := &f.stats[sd]

	if info.Attempt == 1 && f.tables[me].contains(r) {
		// Known not-shared: memory can serve it without snooping.
		st.NSRTHits++
		return buf[:0]
	}

	// Broadcast; the responses' region bits tell us whether anyone else
	// caches the region.
	st.Broadcasts++
	out := buf[:0]
	for i, n := range f.coreNodes {
		if i != me {
			out = append(out, n)
		}
	}

	p := f.getProbe(sd)
	p.region, p.me, p.srcDom = r, me, sd
	p.remaining, p.shared = len(f.domCores)-1, false
	for _, i := range f.domCores[sd] {
		if i == me {
			continue
		}
		if f.present[i][r] > 0 {
			p.shared = true
		}
		// The external request invalidates this core's not-shared belief:
		// the requester is about to cache the region.
		if f.tables[i].remove(r) {
			st.Knockouts++
		}
	}
	if p.remaining == 0 {
		if !p.shared {
			f.tables[me].insert(r)
			st.Discoveries++
		}
		f.pools[sd] = append(f.pools[sd], p)
		return out
	}
	at := f.eng.Now() + f.crossHor[sd]
	for d := range f.domCores {
		if int32(d) != sd {
			f.eng.ScheduleFnAtDom(at, int32(d), f.probeFn, p, uint64(d))
		}
	}
	return out
}
