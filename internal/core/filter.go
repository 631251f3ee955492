// Package core implements virtual snooping, the paper's contribution: a
// snoop filter that confines coherence requests to a VM's *virtual snoop
// domain*.
//
// Each core has a vCPU map register listing the physical cores the VM
// currently running on it must snoop (Section IV.A). The hypervisor keeps
// the registers of a VM's cores synchronized, so this package maintains
// one canonical map per VM. Requests to VM-private pages are multicast to
// the map; RW-shared pages (hypervisor data, inter-VM channels) are
// broadcast; RO-shared (content-shared) pages follow a configurable
// optimization (Section VI.B).
//
// Three relocation policies are provided (Section IV.B):
//
//   - Base: cores are added to a map when a vCPU lands on them and are
//     never removed, so long-lived VMs eventually snoop everything.
//   - Counter: per-VM cache residence counters remove a core as soon as
//     the VM's last block leaves its cache.
//   - CounterThreshold: cores are removed speculatively once the counter
//     falls below a threshold; correctness comes from Token Coherence's
//     safe retries (the protocol broadcasts after two failed attempts).
package core

import (
	"fmt"
	"math/bits"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
	"vsnoop/internal/stats"
	"vsnoop/internal/token"
)

// Policy selects the destination-set policy for VM-private pages.
type Policy int

const (
	// PolicyBroadcast is the TokenB baseline: snoop every core.
	PolicyBroadcast Policy = iota
	// PolicyBase is virtual snooping without map cleanup (vsnoop-base).
	PolicyBase
	// PolicyCounter removes cores whose residence counter reaches zero.
	PolicyCounter
	// PolicyCounterThreshold removes cores speculatively below Threshold.
	PolicyCounterThreshold
	// PolicyCounterFlush removes cores by *flushing* the VM's remaining
	// blocks once the counter falls below Threshold — the selective-flush
	// alternative Section IV.B sketches ("a straightforward solution ...
	// is to flush the cache selectively for a specific VM, if the counter
	// is decreased under a threshold"). Unlike counter-threshold it needs
	// no protocol retry support, at the cost of extra writeback traffic.
	PolicyCounterFlush
)

func (p Policy) String() string {
	return [...]string{"tokenB", "vsnoop-base", "counter", "counter-threshold", "counter-flush"}[p]
}

// ContentPolicy selects how RO-shared (content-shared) page requests are
// routed (Section VI.B).
type ContentPolicy int

const (
	// ContentBroadcast snoops every core (the unoptimized default).
	ContentBroadcast ContentPolicy = iota
	// ContentMemoryDirect sends the request to memory only.
	ContentMemoryDirect
	// ContentIntraVM snoops only the requesting VM's map (plus memory).
	ContentIntraVM
	// ContentFriendVM snoops the requesting VM's map and its friend VM's
	// map (plus memory).
	ContentFriendVM
)

func (p ContentPolicy) String() string {
	return [...]string{"vsnoop-broadcast", "memory-direct", "intra-VM", "friend-VM"}[p]
}

// Config configures a Filter.
type Config struct {
	Policy    Policy
	Content   ContentPolicy
	Threshold int // counter-threshold cutoff (the paper uses 10)
}

// Filter is the virtual-snooping destination-set engine. It implements
// token.Router.
//
// Per-VM core sets are stored exactly as the paper's hardware holds them
// (Section IV.A): each VM's vCPU map is a bit-vector register with one bit
// per physical core, kept here as words of a flat uint64 array indexed by
// mem.DenseVM. Destination sets fall out of bitmask arithmetic (mask, or,
// and-not, popcount) and leave the filter as words too: the mesh sends to
// their bits in ascending core order, which is the deterministic send
// order the simulator requires.
//
// In syncMode partitioned runs each domain owns one replica: a handler may
// only touch the replica of the domain it executes in, and updates reach
// the other replicas as ordered cross-domain delta events (Apply*
// methods).
type Filter struct {
	cfg   Config
	eng   *sim.Engine
	cores int // core i is mesh endpoint i
	nw    int // uint64 words per per-VM bit-vector

	// mapBits holds the canonical per-VM vCPU map registers: nw words per
	// dense VM id, bit c set when core c is in the VM's map.
	mapBits []uint64
	// runBits: bit c set when a vCPU of the VM currently runs on core c.
	runBits []uint64
	// pendBits/pendAt record departures awaiting counter-triggered removal
	// (bit set + departure cycle), feeding the Figure 9 removal-period CDF.
	pendBits []uint64
	pendAt   []sim.Cycle // cores slots per dense VM id

	// all has bit c set for every core c; route holds the two sets Route
	// returns, nw words each, overwritten by every call.
	all   []uint64
	route [2][]uint64

	// caches[i] is core i's L2, consulted for residence counters
	caches []*cache.Cache

	// friends is indexed by dense VM id: each VM's friend for the
	// friend-VM content policy.
	friends []friendSlot

	// RemovalPeriods collects cycles from vCPU departure until the core
	// left the vCPU map (Figure 9).
	RemovalPeriods stats.CDF

	// MapSyncs counts vCPU-map register synchronizations (adds/removes).
	MapSyncs uint64

	// OnFlushVM, wired by the system layer, flushes a VM's blocks from a
	// core's cache (writing tokens back to memory). Required by
	// PolicyCounterFlush.
	OnFlushVM func(core int, vm mem.VMID)

	// OnMapRemove, if set, observes every map-bit removal this replica
	// performs on its own authority (counter policies, departures). The
	// partitioned machine uses it to broadcast the removal to the other
	// domains' replicas as an ordered cross-domain delta. Delta application
	// (ApplyMapClear) never fires it, so replication cannot loop.
	OnMapRemove func(vm mem.VMID, core int)

	// Flushes counts selective-flush events.
	Flushes uint64

	// DegradationEnabled gates graceful map degradation. The system layer
	// sets it only when a fault plan is active, so fault-free runs take
	// exactly the pre-degradation code paths (byte-identical results).
	DegradationEnabled bool

	// slots holds per-dense-VM degradation state (suspicion level while a
	// map is suspected stale, fallback counters, the counter-augmented
	// scratch buffer, and the VM's scan scope). One flat value slot per VM
	// keeps each VM's state confined to the domain that owns it.
	slots []vmSlot
}

// vmSlot is one VM's degradation state: at level 1 private requests use the
// counter-augmented map (map plus every core still holding the VM's data);
// at level 2 they broadcast and the map is rebuilt. Suspicion decays after
// suspectWindow cycles without a new trigger — the safety argument (paper
// Section IV) makes the map advisory, so decay can never break correctness,
// only restore filtering efficiency.
type vmSlot struct {
	level int
	until sim.Cycle

	// Degradation statistics (whole-run; summed by the accessor methods).
	fallbackAug   uint64 // private routes served by the counter-augmented map
	fallbackBroad uint64 // private routes served by full broadcast
	rebuilds      uint64 // maps reconstructed from running + resident state
	underflows    uint64 // residence-counter underflows recovered

	// scanCores restricts residence scans to these cores (nil = all).
	// Partitioned runs set a VM's domain, which is exact: its data can
	// only reside in caches its vCPUs have run on.
	scanCores []int
}

// suspectWindow is how long a suspicion lasts past its latest trigger.
const suspectWindow sim.Cycle = 50_000

// NewFilter builds a filter over cores cores, core i being mesh endpoint
// i. caches may be nil when the counter policies are unused (e.g. the
// broadcast baseline).
func NewFilter(eng *sim.Engine, cfg Config, cores int, caches []*cache.Cache) *Filter {
	return NewFilterScoped(eng, cfg, cores, caches, nil)
}

// NewFilterScoped builds a filter replica that hooks residence-counter
// callbacks only for the cores listed in owned (nil = all). The partitioned
// machine builds one replica per snoop domain over that domain's cores, so
// each cache reports residence triggers to exactly one replica — the one
// whose domain executes that cache's events — while the full register file
// is replicated everywhere and kept coherent by cross-domain deltas.
func NewFilterScoped(eng *sim.Engine, cfg Config, cores int, caches []*cache.Cache, owned []int) *Filter {
	if cfg.Policy == PolicyCounterThreshold && cfg.Threshold <= 0 {
		cfg.Threshold = 10
	}
	if cfg.Policy == PolicyCounterFlush && cfg.Threshold <= 0 {
		cfg.Threshold = 10
	}
	nw := (cores + 63) / 64
	f := &Filter{
		cfg:    cfg,
		eng:    eng,
		cores:  cores,
		nw:     nw,
		caches: caches,
		all:    make([]uint64, nw),
		route:  [2][]uint64{make([]uint64, nw), make([]uint64, nw)},
	}
	for c := 0; c < cores; c++ {
		setBit(f.all, c)
	}
	// Wire residence-counter callbacks for the owned cores.
	hook := func(i int) {
		c := caches[i]
		if c == nil {
			return
		}
		switch cfg.Policy {
		case PolicyCounter:
			c.OnResidenceZero = func(vm mem.VMID) { f.tryRemove(vm, i, 0) }
		case PolicyCounterThreshold:
			c.Threshold = cfg.Threshold
			c.OnResidenceBelow = func(vm mem.VMID, n int) { f.tryRemove(vm, i, n) }
		case PolicyCounterFlush:
			c.Threshold = cfg.Threshold
			c.OnResidenceBelow = func(vm mem.VMID, n int) { f.tryFlush(vm, i, n) }
		}
	}
	switch cfg.Policy {
	case PolicyCounter, PolicyCounterThreshold, PolicyCounterFlush:
		if owned != nil {
			for _, i := range owned {
				hook(i)
			}
		} else {
			for i := range caches {
				hook(i)
			}
		}
	}
	return f
}

// Config returns the filter configuration.
func (f *Filter) Config() Config { return f.cfg }

// friendSlot is one VM's entry in the friend table.
type friendSlot struct {
	vm  mem.VMID
	set bool
}

// SetFriend records vm's friend VM for the friend-VM content policy.
func (f *Filter) SetFriend(vm, friend mem.VMID) {
	d := mem.DenseVM(vm)
	if d >= len(f.friends) {
		f.friends = append(f.friends, make([]friendSlot, d+1-len(f.friends))...)
	}
	f.friends[d] = friendSlot{vm: friend, set: true}
}

// ensure grows the per-VM register files to cover vm and returns its
// dense index. Growth happens only on a VM's first appearance.
func (f *Filter) ensure(vm mem.VMID) int {
	d := mem.DenseVM(vm)
	for (d+1)*f.nw > len(f.mapBits) {
		f.mapBits = append(f.mapBits, make([]uint64, f.nw)...)
		f.runBits = append(f.runBits, make([]uint64, f.nw)...)
		f.pendBits = append(f.pendBits, make([]uint64, f.nw)...)
		f.pendAt = append(f.pendAt, make([]sim.Cycle, f.cores)...)
		f.slots = append(f.slots, vmSlot{})
	}
	return d
}

// slot returns vm's degradation slot, growing the register files if needed.
func (f *Filter) slot(vm mem.VMID) *vmSlot { return &f.slots[f.ensure(vm)] }

// SetVMScope confines vm's degradation machinery to its snoop domain:
// residence scans cover only cores (nil = all caches). Partitioned runs
// call this at setup for every VM, matching the partitioner's core
// assignment.
func (f *Filter) SetVMScope(vm mem.VMID, cores []int) {
	f.slot(vm).scanCores = cores
}

// FallbackCounterAug returns the private routes served by the
// counter-augmented map across all VMs.
func (f *Filter) FallbackCounterAug() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].fallbackAug
	}
	return n
}

// FallbackBroadcast returns the private routes served by full broadcast.
func (f *Filter) FallbackBroadcast() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].fallbackBroad
	}
	return n
}

// MapRebuilds returns the maps reconstructed from running + resident state.
func (f *Filter) MapRebuilds() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].rebuilds
	}
	return n
}

// Underflows returns the residence-counter underflows recovered.
func (f *Filter) Underflows() uint64 {
	var n uint64
	for i := range f.slots {
		n += f.slots[i].underflows
	}
	return n
}

// words returns vm's word-slice view of a register file, or nil when the
// VM has never been seen (a read that must not grow the files).
func (f *Filter) words(file []uint64, vm mem.VMID) []uint64 {
	lo := mem.DenseVM(vm) * f.nw
	if lo+f.nw > len(file) {
		return nil
	}
	return file[lo : lo+f.nw]
}

func testBit(w []uint64, c int) bool {
	return w != nil && w[c>>6]&(1<<(uint(c)&63)) != 0
}

func setBit(w []uint64, c int)   { w[c>>6] |= 1 << (uint(c) & 63) }
func clearBit(w []uint64, c int) { w[c>>6] &^= 1 << (uint(c) & 63) }

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// HandleRelocate is the hypervisor hook: vCPU v of a VM moved from core
// `from` (-1 on first placement) to core `to`. The hypervisor adds the new
// core to the VM's map before the VM runs there; the old core stays until
// a counter policy removes it.
func (f *Filter) HandleRelocate(vm mem.VMID, from, to int) {
	d := f.ensure(vm)
	run := f.runBits[d*f.nw : (d+1)*f.nw]
	if from >= 0 {
		clearBit(run, from)
	}
	setBit(run, to)

	m := f.mapBits[d*f.nw : (d+1)*f.nw]
	if !testBit(m, to) {
		setBit(m, to)
		f.MapSyncs++
	}

	if from < 0 || testBit(run, from) {
		return
	}
	f.departCheck(vm, d, from)
}

// departCheck handles a vCPU departure from core `from` once the run bit is
// clear: under the counter policies, remove the core if its data is already
// gone, otherwise record the pending departure feeding the Figure 9 CDF.
func (f *Filter) departCheck(vm mem.VMID, d, from int) {
	switch f.cfg.Policy {
	case PolicyCounter, PolicyCounterThreshold, PolicyCounterFlush:
		n := 0
		if f.caches != nil && f.caches[from] != nil {
			n = f.caches[from].Resident(vm)
		}
		limit := 1 // counter: remove at zero
		if f.cfg.Policy == PolicyCounterThreshold || f.cfg.Policy == PolicyCounterFlush {
			limit = f.cfg.Threshold
		}
		if n < limit {
			f.remove(vm, from)
			if f.cfg.Policy == PolicyCounterFlush && n > 0 && f.OnFlushVM != nil {
				f.Flushes++
				f.OnFlushVM(from, vm)
			}
			return
		}
		setBit(f.pendBits[d*f.nw:(d+1)*f.nw], from)
		f.pendAt[d*f.cores+from] = f.eng.Now()
	}
}

// RelocateDepart is the source-domain half of a cross-domain vCPU move: the
// vCPU left core `from`, so clear the run bit and run the counter-policy
// departure check against this domain's caches (which own core `from`). The
// destination side happens later, in the target domain, via RelocateArrive.
func (f *Filter) RelocateDepart(vm mem.VMID, from int) {
	d := f.ensure(vm)
	clearBit(f.runBits[d*f.nw:(d+1)*f.nw], from)
	f.departCheck(vm, d, from)
}

// RelocateArrive is the destination-domain half of a cross-domain vCPU move:
// the vCPU now runs on core `to`, which the hypervisor adds to the VM's map
// before the VM runs there. MapSyncs is counted here — once per move, on
// the owning domain — never on delta application.
func (f *Filter) RelocateArrive(vm mem.VMID, to int) {
	d := f.ensure(vm)
	setBit(f.runBits[d*f.nw:(d+1)*f.nw], to)
	m := f.mapBits[d*f.nw : (d+1)*f.nw]
	if !testBit(m, to) {
		setBit(m, to)
		f.MapSyncs++
	}
}

// The Apply* methods replay another replica's register update on this one.
// They mutate only the replicated architectural state (run/map/pend bits),
// never the statistics or the departure CDF: every event is counted exactly
// once, on the domain that owns it.

// ApplyRunSet replays a remote run-bit set.
func (f *Filter) ApplyRunSet(vm mem.VMID, core int) {
	d := f.ensure(vm)
	setBit(f.runBits[d*f.nw:(d+1)*f.nw], core)
}

// ApplyRunClear replays a remote run-bit clear.
func (f *Filter) ApplyRunClear(vm mem.VMID, core int) {
	d := f.ensure(vm)
	clearBit(f.runBits[d*f.nw:(d+1)*f.nw], core)
}

// ApplyMapSet replays a remote map addition.
func (f *Filter) ApplyMapSet(vm mem.VMID, core int) {
	d := f.ensure(vm)
	setBit(f.mapBits[d*f.nw:(d+1)*f.nw], core)
}

// ApplyMapClear replays a remote map removal, discarding any pending
// departure record for the core (the owning replica observed the CDF).
func (f *Filter) ApplyMapClear(vm mem.VMID, core int) {
	d := f.ensure(vm)
	clearBit(f.mapBits[d*f.nw:(d+1)*f.nw], core)
	clearBit(f.pendBits[d*f.nw:(d+1)*f.nw], core)
}

// tryRemove handles a residence-counter trigger at core for vm.
func (f *Filter) tryRemove(vm mem.VMID, core int, count int) {
	if testBit(f.words(f.runBits, vm), core) {
		return // still running there: the core must stay in the map
	}
	if !testBit(f.words(f.mapBits, vm), core) {
		return
	}
	f.remove(vm, core)
}

// tryFlush handles a below-threshold trigger under PolicyCounterFlush:
// flush the VM's remaining blocks from the departed core, then remove it.
func (f *Filter) tryFlush(vm mem.VMID, core int, n int) {
	if testBit(f.words(f.runBits, vm), core) || !testBit(f.words(f.mapBits, vm), core) {
		return
	}
	// Remove first: the flush below re-triggers residence callbacks for
	// every invalidated block, and they must find the core already gone.
	f.remove(vm, core)
	if n > 0 && f.OnFlushVM != nil {
		f.Flushes++
		f.OnFlushVM(core, vm)
	}
}

func (f *Filter) remove(vm mem.VMID, core int) {
	d := f.ensure(vm)
	m := f.mapBits[d*f.nw : (d+1)*f.nw]
	if !testBit(m, core) {
		return
	}
	clearBit(m, core)
	f.MapSyncs++
	pend := f.pendBits[d*f.nw : (d+1)*f.nw]
	if testBit(pend, core) {
		f.RemovalPeriods.Observe(float64(f.eng.Now() - f.pendAt[d*f.cores+core]))
		clearBit(pend, core)
	}
	if f.OnMapRemove != nil {
		f.OnMapRemove(vm, core)
	}
}

// NoteEscalation implements token.EscalationSink: a transaction of vm
// escalated to broadcast (level 1) or a persistent request (level 2), which
// under fault load usually means the VM's map excluded a token holder.
func (f *Filter) NoteEscalation(vm mem.VMID, level int) {
	if !f.DegradationEnabled {
		return
	}
	f.SuspectVM(vm, level)
}

// NoteUnderflow records a recovered residence-counter underflow for vm;
// the counters can no longer be trusted, so the map is rebuilt and the VM
// broadcasts until suspicion decays.
func (f *Filter) NoteUnderflow(vm mem.VMID) {
	if !f.DegradationEnabled {
		return
	}
	s := f.slot(vm)
	s.underflows++
	f.SuspectVM(vm, 2)
}

// SuspectVM marks vm's map suspect at the given degradation level (1 =
// counter-augmented map, 2 = broadcast + map rebuild). A repeated trigger
// extends the window; a higher level upgrades it.
func (f *Filter) SuspectVM(vm mem.VMID, level int) {
	if level < 1 {
		level = 1
	}
	if level > 2 {
		level = 2
	}
	s := f.slot(vm)
	if level > s.level {
		s.level = level
	}
	s.until = f.eng.Now() + suspectWindow
	if s.level >= 2 {
		f.rebuildMap(vm)
	}
}

// SuspicionLevel returns vm's current degradation level (0 = none).
func (f *Filter) SuspicionLevel(vm mem.VMID) int {
	d := mem.DenseVM(vm)
	if d >= len(f.slots) {
		return 0
	}
	s := &f.slots[d]
	if s.level == 0 || f.eng.Now() > s.until {
		return 0
	}
	return s.level
}

// CorruptMap overwrites vm's vCPU map register without telling anyone — a
// deliberate fault injection (internal/fault). core >= 0 leaves the map
// holding only that core (a stale single entry); core < 0 clears it
// entirely. MapSyncs is not incremented: hardware does not see soft errors.
func (f *Filter) CorruptMap(vm mem.VMID, core int) {
	d := f.ensure(vm)
	m := f.mapBits[d*f.nw : (d+1)*f.nw]
	for i := range m {
		m[i] = 0
	}
	if core >= 0 && core < f.cores {
		setBit(m, core)
	}
}

// rebuildMap reconstructs vm's map from trustworthy state: the cores where
// the VM currently runs plus every core whose cache still holds its data.
func (f *Filter) rebuildMap(vm mem.VMID) {
	d := f.ensure(vm)
	s := &f.slots[d]
	m := f.mapBits[d*f.nw : (d+1)*f.nw]
	run := f.runBits[d*f.nw : (d+1)*f.nw]
	copy(m, run)
	f.scanResident(vm, s, m)
	s.rebuilds++
}

// scanResident sets the bit of every core whose cache still holds vm's data,
// honoring the slot's scan scope.
func (f *Filter) scanResident(vm mem.VMID, s *vmSlot, w []uint64) {
	if f.caches == nil {
		return
	}
	if s.scanCores != nil {
		for _, i := range s.scanCores {
			if c := f.caches[i]; c != nil && c.Resident(vm) > 0 {
				setBit(w, i)
			}
		}
		return
	}
	for i, c := range f.caches {
		if c != nil && c.Resident(vm) > 0 {
			setBit(w, i)
		}
	}
}

// MapCores returns the sorted cores in vm's vCPU map (for tests/stats).
func (f *Filter) MapCores(vm mem.VMID) []int {
	w := f.words(f.mapBits, vm)
	out := make([]int, 0, popcount(w))
	for wi, word := range w {
		base := wi << 6
		for word != 0 {
			out = append(out, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// MapSize returns the size of vm's vCPU map.
func (f *Filter) MapSize(vm mem.VMID) int { return popcount(f.words(f.mapBits, vm)) }

// Contains reports whether core is in vm's map.
func (f *Filter) Contains(vm mem.VMID, core int) bool {
	return testBit(f.words(f.mapBits, vm), core)
}

// unroutablePanic is Route's cold failure path; it keeps the fmt call out
// of the hot routing function.
func unroutablePanic(p mem.PageType) {
	panic(fmt.Sprintf("core: unroutable request page=%v", p))
}

// Route implements token.Router: the destination set for one transaction
// attempt as core-bit words, excluding the requester (which looks up its
// own cache anyway) and excluding memory (the home controller is always
// addressed). A friend-VM RO-shared route has a second set: the friend's
// map minus the requester and the VM's own set. Both are the filter's
// route words, valid until its next Route call.
func (f *Filter) Route(info token.RouteInfo) (first, second []uint64) {
	if f.cfg.Policy == PolicyBroadcast {
		return f.allExcept(info.Requester), nil
	}
	switch info.Page {
	case mem.PagePrivate:
		return f.domainExcept(info.VM, info.Requester), nil
	case mem.PageRWShared:
		return f.allExcept(info.Requester), nil
	case mem.PageROShared:
		switch f.cfg.Content {
		case ContentBroadcast:
			return f.allExcept(info.Requester), nil
		case ContentMemoryDirect:
			return nil, nil
		case ContentIntraVM:
			return f.domainExcept(info.VM, info.Requester), nil
		case ContentFriendVM:
			first = f.domainExcept(info.VM, info.Requester)
			if d := mem.DenseVM(info.VM); d < len(f.friends) && f.friends[d].set {
				second = f.except(1, f.words(f.mapBits, f.friends[d].vm), info.Requester)
				for i := range second {
					second[i] &^= first[i]
				}
			}
			return first, second
		}
	}
	unroutablePanic(info.Page)
	return nil, nil
}

// except copies the set w (nil for the empty set) into route words i,
// minus the requester, and returns them.
func (f *Filter) except(i int, w []uint64, requester int) []uint64 {
	out := f.route[i]
	clear(out)
	copy(out, w)
	clearBit(out, requester)
	return out
}

// allExcept returns the broadcast destination set excluding the requester.
func (f *Filter) allExcept(requester int) []uint64 {
	return f.except(0, f.all, requester)
}

// domainExcept is the degradation-aware destination set for a VM's own
// snoop domain: the plain map normally, the counter-augmented map at
// suspicion level 1, full broadcast at level 2. With degradation disabled
// it is exactly the map.
func (f *Filter) domainExcept(vm mem.VMID, requester int) []uint64 {
	if !f.DegradationEnabled {
		return f.except(0, f.words(f.mapBits, vm), requester)
	}
	d := mem.DenseVM(vm)
	if d >= len(f.slots) {
		return f.except(0, f.words(f.mapBits, vm), requester)
	}
	s := &f.slots[d]
	if s.level == 0 || f.eng.Now() > s.until {
		s.level = 0 // suspicion decayed
		return f.except(0, f.words(f.mapBits, vm), requester)
	}
	if s.level >= 2 {
		s.fallbackBroad++
		return f.allExcept(requester)
	}
	s.fallbackAug++
	// The level-1 degradation set: the map augmented with every core whose
	// residence counter says it still holds the VM's data — cheap to
	// compute, strictly safer than the map alone.
	out := f.route[0]
	clear(out)
	copy(out, f.words(f.mapBits, vm))
	f.scanResident(vm, s, out)
	clearBit(out, requester)
	return out
}
