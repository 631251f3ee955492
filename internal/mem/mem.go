// Package mem models memory virtualization as seen by the virtual-snooping
// hardware: per-VM guest-physical to host-physical page tables maintained
// by the hypervisor, the page sharing-type bits that virtual snooping
// stores in (shadow/nested) page-table entries, content-based page sharing
// with copy-on-write, and the globally RW-shared hypervisor region.
//
// The paper (Section IV.A) distinguishes three page types, recorded in two
// unused PTE bits and visible at TLB-lookup time:
//
//   - VM-private:   only the owning VM ever touches the page; snoops can be
//     confined to the VM's vCPU map.
//   - RW-shared:    hypervisor data, dom0 I/O rings, inter-VM channels;
//     snoops must be broadcast.
//   - RO-shared:    content-based shared pages, guaranteed clean in memory;
//     snoops can use the memory-direct / intra-VM / friend-VM
//     optimizations of Section VI.
package mem

import (
	"fmt"
	"math/bits"
)

// Page and block geometry. 4 KB pages, 64 B coherence blocks.
const (
	PageShift     = 12
	BlockShift    = 6
	PageBytes     = 1 << PageShift
	BlockBytes    = 1 << BlockShift
	BlocksPerPage = 1 << (PageShift - BlockShift)
)

// VMID identifies a virtual machine. The hypervisor itself is addressed
// with the sentinel Hypervisor when attributing accesses.
type VMID uint16

// Hypervisor is the VMID sentinel for accesses executed by the hypervisor
// itself (not any guest).
const Hypervisor VMID = 0xFFFF

// reservedVMs is the number of sentinel VMIDs at the top of the VMID
// space (0xFFFD..0xFFFF: dom0, spare, Hypervisor) that DenseVM folds to
// the low indexes.
const reservedVMs = 3

// DenseVM maps a VMID onto a small dense array index: the reserved
// sentinels fold to 0..2 and guest IDs shift up by 3. Hardware-register
// models (residence counters, vCPU map registers) index flat arrays by
// this value, so their footprint is proportional to the number of guest
// VMs rather than the 16-bit VMID space.
func DenseVM(vm VMID) int {
	if vm >= 0xFFFD {
		return int(vm) - 0xFFFD
	}
	return int(vm) + reservedVMs
}

// VMFromDense inverts DenseVM.
func VMFromDense(i int) VMID {
	if i < reservedVMs {
		return VMID(0xFFFD + i)
	}
	return VMID(i - reservedVMs)
}

// GuestPage is a guest-physical page number within one VM.
type GuestPage uint64

// HostPage is a host-physical (machine) page number.
type HostPage uint64

// BlockAddr is a host-physical coherence-block address (block number).
type BlockAddr uint64

// PageOf returns the host page containing a block.
func (b BlockAddr) PageOf() HostPage {
	return HostPage(b >> (PageShift - BlockShift))
}

// BlockInPage builds the block address for block index i (0..63) of page p.
func BlockInPage(p HostPage, i int) BlockAddr {
	return BlockAddr(uint64(p)<<(PageShift-BlockShift) | uint64(i)&(BlocksPerPage-1))
}

// PageType is the sharing classification stored in the two unused PTE bits.
type PageType uint8

const (
	// PagePrivate marks a VM-private page: snoops multicast to the vCPU map.
	PagePrivate PageType = iota
	// PageRWShared marks hypervisor / inter-VM read-write sharing: broadcast.
	PageRWShared
	// PageROShared marks content-based read-only sharing: optimizable.
	PageROShared
)

func (t PageType) String() string {
	switch t {
	case PagePrivate:
		return "VM-private"
	case PageRWShared:
		return "RW-shared"
	case PageROShared:
		return "RO-shared"
	}
	return fmt.Sprintf("PageType(%d)", uint8(t))
}

// ContentID identifies page contents for the content-based sharing
// detector; pages in different VMs with equal nonzero ContentIDs are
// candidates for merging. Zero means "unique content".
type ContentID uint64

// pte is one guest-physical mapping entry.
type pte struct {
	host    HostPage
	typ     PageType
	content ContentID
	valid   bool
}

// Space is one VM's guest-physical address space (the nested/shadow
// mapping table the hypervisor maintains for it).
type Space struct {
	vm    VMID
	table []pte
}

// Pages returns the size of the guest-physical space in pages.
func (s *Space) Pages() int { return len(s.table) }

// Manager is the hypervisor's memory manager: it owns host-physical page
// allocation, per-VM spaces, sharing types, the hypervisor region, and the
// content-based sharing (merge + copy-on-write) machinery.
//
// Host pages are numbered densely from 0 in allocation order, so every
// per-page table is a slice indexed by HostPage, and every per-VM table a
// slice indexed by DenseVM.
type Manager struct {
	nextHost HostPage
	// spaces is indexed by DenseVM; nil where a VM has no space.
	spaces []*Space
	// hostType is indexed by HostPage; a page past its end has never been
	// typed and is VM-private.
	hostType []PageType
	// content merge index: content id -> canonical shared host page
	merged map[ContentID]HostPage
	// roSet[p] is 1 + the index of RO-shared host page p's sharer set
	// (0: p has none). Set i is sharers[i*sw : (i+1)*sw], a bitset over
	// dense VM indexes.
	roSet   []int32
	sharers []uint64
	sw      int
	// shared[a*nvm+b] counts the RO-shared host pages both dense VMs a
	// and b map (a != b). MergeIdentical keeps it as the sharer sets grow,
	// so friend selection reads it instead of recounting pairs.
	shared []int32
	nvm    int
	// hypervisor RW-shared region
	hvPages []HostPage
	// statistics
	MergedPages uint64
}

// NewManager returns a memory manager with hvPages pages of globally
// RW-shared hypervisor memory.
func NewManager(hvPages int) *Manager {
	m := &Manager{merged: make(map[ContentID]HostPage)}
	for i := 0; i < hvPages; i++ {
		p := m.allocHost(PageRWShared)
		m.hvPages = append(m.hvPages, p)
	}
	return m
}

func (m *Manager) allocHost(t PageType) HostPage {
	p := m.nextHost
	m.nextHost++
	m.setType(p, t)
	return p
}

// setType records the sharing type of host page p, growing the table to
// cover it.
func (m *Manager) setType(p HostPage, t PageType) {
	if n := int(p) + 1; n > len(m.hostType) {
		m.hostType = append(m.hostType, make([]PageType, n-len(m.hostType))...)
	}
	m.hostType[p] = t
}

// NewSpace creates the guest-physical space for vm with the given number
// of pages. Pages are allocated lazily on first Translate.
func (m *Manager) NewSpace(vm VMID, pages int) *Space {
	d := DenseVM(vm)
	if d < len(m.spaces) && m.spaces[d] != nil {
		panic(fmt.Sprintf("mem: space for VM %d already exists", vm))
	}
	if d >= len(m.spaces) {
		m.spaces = append(m.spaces, make([]*Space, d+1-len(m.spaces))...)
	}
	s := &Space{vm: vm, table: make([]pte, pages)}
	m.spaces[d] = s
	return s
}

// Space returns the address space of vm, or nil.
func (m *Manager) Space(vm VMID) *Space {
	if d := DenseVM(vm); d < len(m.spaces) {
		return m.spaces[d]
	}
	return nil
}

// eachSpace calls fn for every space in ascending VMID order: the guest
// VMs in dense order, then the reserved sentinels, whose VMIDs are the
// highest but whose dense indexes are the lowest.
func (m *Manager) eachSpace(fn func(s *Space)) {
	for d := reservedVMs; d < len(m.spaces); d++ {
		if s := m.spaces[d]; s != nil {
			fn(s)
		}
	}
	for d := 0; d < reservedVMs && d < len(m.spaces); d++ {
		if s := m.spaces[d]; s != nil {
			fn(s)
		}
	}
}

// HypervisorPages returns the number of pages in the hypervisor region.
func (m *Manager) HypervisorPages() int { return len(m.hvPages) }

// HypervisorPage returns host page i of the RW-shared hypervisor region.
func (m *Manager) HypervisorPage(i int) HostPage { return m.hvPages[i%len(m.hvPages)] }

// Translation is the result of a guest-physical lookup: the host page and
// its sharing type, exactly the information the paper exposes to the cache
// controller through the TLB.
type Translation struct {
	Host HostPage
	Type PageType
}

// Translate maps (vm, guest page) to its host page, allocating a fresh
// VM-private host page on first touch (the hypervisor's lazy allocation).
func (m *Manager) Translate(vm VMID, gp GuestPage) Translation {
	s := m.Space(vm)
	if s == nil {
		panic(fmt.Sprintf("mem: no space for VM %d", vm))
	}
	if int(gp) >= len(s.table) {
		panic(fmt.Sprintf("mem: guest page %d out of range for VM %d (%d pages)", gp, vm, len(s.table)))
	}
	e := &s.table[gp]
	if !e.valid {
		e.host = m.allocHost(PagePrivate)
		e.typ = PagePrivate
		e.valid = true
	}
	return Translation{Host: e.host, Type: e.typ}
}

// TypeOf returns the sharing type of a host page (PagePrivate for unknown
// pages, which matches the hardware default of no sharing bits set).
func (m *Manager) TypeOf(p HostPage) PageType {
	if p < HostPage(len(m.hostType)) {
		return m.hostType[p]
	}
	return PagePrivate
}

// PreallocateAll eagerly allocates every unmapped guest page in every space,
// in (VM id, guest page) order — the same order lazy first-touch allocation
// would produce on a one-queue run of the reference workloads, whose vCPUs
// walk their spaces in VM order from cycle zero. The machine calls this at
// setup, so host-page numbering does not depend on which domain touches a
// page first. The golden results pin this numbering.
func (m *Manager) PreallocateAll() {
	m.eachSpace(func(s *Space) {
		for gp := range s.table {
			e := &s.table[gp]
			if !e.valid {
				e.host = m.allocHost(PagePrivate)
				e.typ = PagePrivate
				e.valid = true
			}
		}
	})
}

// CowKey packs a (vm, guest page) pair into one word, the key of the
// machine's per-domain copy-on-write overlays.
func CowKey(vm VMID, gp GuestPage) uint64 { return uint64(vm)<<32 | uint64(gp) }

// CowTargets is the preallocated copy-on-write target index
// (PrepareCowTargets): for each RO-shared (vm, guest page) mapping, the
// private host page a store to it resolves to.
type CowTargets struct {
	// spaces[DenseVM(vm)][gp] is the target, 0 where the mapping has none
	// (no target is host page 0: each is allocated after the shared page it
	// replaces). A space without RO-shared mappings has a nil row.
	spaces [][]HostPage
	n      int
}

// Target returns the COW target of (vm, gp); ok is false when the mapping
// was not RO-shared at PrepareCowTargets.
func (t *CowTargets) Target(vm VMID, gp GuestPage) (p HostPage, ok bool) {
	if d := DenseVM(vm); d < len(t.spaces) && int(gp) < len(t.spaces[d]) {
		p = t.spaces[d][gp]
	}
	return p, p != 0
}

// Len returns the number of targets.
func (t *CowTargets) Len() int { return t.n }

// PrepareCowTargets preallocates one private host page per RO-shared
// (vm, guest page) mapping, in (VM id, guest page) order, and returns the
// target index. The machine calls this at setup, after MergeIdentical: a
// guest store to an RO-shared page (Section VI.A) then traps through a
// per-domain overlay table onto its fixed private target, other sharers
// keep the read-only copy, and the shared manager is never mutated at run
// time, so host-page numbering never depends on the order domains take
// their COW faults.
func (m *Manager) PrepareCowTargets() CowTargets {
	t := CowTargets{spaces: make([][]HostPage, len(m.spaces))}
	m.eachSpace(func(s *Space) {
		var row []HostPage
		for gp := range s.table {
			e := &s.table[gp]
			if e.valid && e.typ == PageROShared {
				if row == nil {
					row = make([]HostPage, len(s.table))
					t.spaces[DenseVM(s.vm)] = row
				}
				row[gp] = m.allocHost(PagePrivate)
				t.n++
			}
		}
	})
	return t
}

// SetContent declares the content of a guest page, touching it first if
// needed. It is used by workload setup to mark pages whose contents are
// identical across VMs (e.g. guest kernel text, shared libraries).
func (m *Manager) SetContent(vm VMID, gp GuestPage, c ContentID) {
	m.Translate(vm, gp) // ensure allocated
	m.Space(vm).table[gp].content = c
}

// MergeIdentical runs the idealized content-based sharing detector of
// Section VI.A: every pair of pages (across different VMs) with equal
// nonzero ContentIDs is merged onto one RO-shared host page. It runs at
// machine setup, before any cache holds a line, so memory already holds the
// clean copy that RO optimizations need (Section VI.B) and nothing has to
// be flushed. It returns the number of mappings that were redirected.
func (m *Manager) MergeIdentical() int {
	m.fitVMs(len(m.spaces))
	redirected := 0
	m.eachSpace(func(s *Space) {
		d := DenseVM(s.vm)
		for gp := range s.table {
			e := &s.table[gp]
			if !e.valid || e.content == 0 || e.typ == PageRWShared {
				continue
			}
			canon, ok := m.merged[e.content]
			if !ok {
				// First page with this content becomes the canonical
				// RO-shared copy.
				canon = e.host
				m.merged[e.content] = canon
				m.setType(canon, PageROShared)
				m.newSharerSet(canon, d)
				m.MergedPages++
				e.typ = PageROShared
				continue
			}
			if e.host == canon {
				continue // already merged
			}
			// Redirect this mapping to the canonical page. The old private
			// host page is abandoned (freed in a real hypervisor).
			e.host = canon
			e.typ = PageROShared
			m.addSharer(canon, d)
			redirected++
		}
	})
	return redirected
}

// fitVMs widens the sharer sets and the shared-page matrix to cover n
// dense VMs, keeping their contents.
func (m *Manager) fitVMs(n int) {
	if n <= m.nvm {
		return
	}
	if sw := (n + 63) / 64; sw != m.sw {
		sets := len(m.sharers) / max(m.sw, 1)
		wide := make([]uint64, sets*sw)
		for i := 0; i < sets; i++ {
			copy(wide[i*sw:], m.sharers[i*m.sw:(i+1)*m.sw])
		}
		m.sharers, m.sw = wide, sw
	}
	shared := make([]int32, n*n)
	for a := 0; a < m.nvm; a++ {
		copy(shared[a*n:], m.shared[a*m.nvm:(a+1)*m.nvm])
	}
	m.shared, m.nvm = shared, n
}

// sharerSet returns host page p's sharer bitset (nil when p has none).
func (m *Manager) sharerSet(p HostPage) []uint64 {
	if p >= HostPage(len(m.roSet)) || m.roSet[p] == 0 {
		return nil
	}
	i := int(m.roSet[p]-1) * m.sw
	return m.sharers[i : i+m.sw]
}

// newSharerSet makes dense VM d the only sharer of host page p, replacing
// any set p had before (and withdrawing its pairs from the matrix).
func (m *Manager) newSharerSet(p HostPage, d int) {
	set := m.sharerSet(p)
	if set == nil {
		if n := int(p) + 1; n > len(m.roSet) {
			m.roSet = append(m.roSet, make([]int32, n-len(m.roSet))...)
		}
		m.roSet[p] = int32(len(m.sharers)/m.sw) + 1
		m.sharers = append(m.sharers, make([]uint64, m.sw)...)
		set = m.sharerSet(p)
	}
	for wi, w := range set {
		for w != 0 {
			a := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			for wj, v := range set {
				for v != 0 {
					if b := wj<<6 + bits.TrailingZeros64(v); b != a {
						m.shared[a*m.nvm+b]--
					}
					v &= v - 1
				}
			}
		}
		set[wi] = 0
	}
	set[d>>6] |= 1 << (d & 63)
}

// addSharer adds dense VM d to host page p's sharer set, counting one more
// shared page for d and each sharer already in it.
func (m *Manager) addSharer(p HostPage, d int) {
	set := m.sharerSet(p)
	if set[d>>6]&(1<<(d&63)) != 0 {
		return
	}
	for wi, w := range set {
		for w != 0 {
			b := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			m.shared[d*m.nvm+b]++
			m.shared[b*m.nvm+d]++
		}
	}
	set[d>>6] |= 1 << (d & 63)
}

// ShareRW marks a guest page of vm as RW-shared (an inter-VM communication
// ring or hypervisor-shared buffer). Multiple VMs may be mapped onto the
// same RW-shared host page by passing the host page returned from the
// first call.
func (m *Manager) ShareRW(vm VMID, gp GuestPage, existing HostPage, reuse bool) HostPage {
	s := m.Space(vm)
	e := &s.table[gp]
	var hp HostPage
	if reuse {
		hp = existing
	} else {
		hp = m.allocHost(PageRWShared)
	}
	e.host = hp
	e.typ = PageRWShared
	e.valid = true
	m.setType(hp, PageRWShared)
	return hp
}

// ROSharers returns the VMs currently mapping RO-shared host page p, in
// ascending VMID order so callers may iterate deterministically.
func (m *Manager) ROSharers(p HostPage) []VMID {
	set := m.sharerSet(p)
	if set == nil {
		return nil
	}
	var out []VMID
	for wi, w := range set {
		if wi == 0 {
			w &^= 1<<reservedVMs - 1 // the sentinels go last: theirs are the highest VMIDs
		}
		for w != 0 {
			out = append(out, VMFromDense(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	for d := 0; d < reservedVMs; d++ {
		if set[0]&(1<<d) != 0 {
			out = append(out, VMFromDense(d))
		}
	}
	return out
}

// FriendOf returns the VM sharing the most RO-shared pages with vm, using
// the lowest VMID to break ties (Section VI.B: a VM's friend is the VM it
// shares the most content with). ok is false when vm shares nothing.
func (m *Manager) FriendOf(vm VMID) (friend VMID, ok bool) {
	a := DenseVM(vm)
	if a >= m.nvm {
		return 0, false
	}
	best := int32(0)
	for b, n := range m.shared[a*m.nvm : (a+1)*m.nvm] {
		if other := VMFromDense(b); n > best || (n == best && n > 0 && other < friend) {
			best, friend = n, other
		}
	}
	return friend, best > 0
}
