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
	"sort"
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
type Manager struct {
	nextHost HostPage
	spaces   map[VMID]*Space
	hostType map[HostPage]PageType
	// content merge index: content id -> canonical shared host page
	merged map[ContentID]HostPage
	// which VMs currently map each RO-shared host page
	roSharers map[HostPage]map[VMID]bool
	// hypervisor RW-shared region
	hvPages []HostPage
	// statistics
	MergedPages uint64
}

// NewManager returns a memory manager with hvPages pages of globally
// RW-shared hypervisor memory.
func NewManager(hvPages int) *Manager {
	m := &Manager{
		spaces:    make(map[VMID]*Space),
		hostType:  make(map[HostPage]PageType),
		merged:    make(map[ContentID]HostPage),
		roSharers: make(map[HostPage]map[VMID]bool),
	}
	for i := 0; i < hvPages; i++ {
		p := m.allocHost(PageRWShared)
		m.hvPages = append(m.hvPages, p)
	}
	return m
}

func (m *Manager) allocHost(t PageType) HostPage {
	p := m.nextHost
	m.nextHost++
	m.hostType[p] = t
	return p
}

// NewSpace creates the guest-physical space for vm with the given number
// of pages. Pages are allocated lazily on first Translate.
func (m *Manager) NewSpace(vm VMID, pages int) *Space {
	if _, ok := m.spaces[vm]; ok {
		panic(fmt.Sprintf("mem: space for VM %d already exists", vm))
	}
	s := &Space{vm: vm, table: make([]pte, pages)}
	m.spaces[vm] = s
	return s
}

// Space returns the address space of vm, or nil.
func (m *Manager) Space(vm VMID) *Space { return m.spaces[vm] }

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
	s := m.spaces[vm]
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
func (m *Manager) TypeOf(p HostPage) PageType { return m.hostType[p] }

// PreallocateAll eagerly allocates every unmapped guest page in every space,
// in (VM id, guest page) order — the same order lazy first-touch allocation
// would produce on a one-queue run of the reference workloads, whose vCPUs
// walk their spaces in VM order from cycle zero. The machine calls this at
// setup, so host-page numbering does not depend on which domain touches a
// page first. The golden results pin this numbering.
func (m *Manager) PreallocateAll() {
	vms := make([]VMID, 0, len(m.spaces))
	for vm := range m.spaces {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		s := m.spaces[vm]
		for gp := range s.table {
			e := &s.table[gp]
			if !e.valid {
				e.host = m.allocHost(PagePrivate)
				e.typ = PagePrivate
				e.valid = true
			}
		}
	}
}

// CowKey packs a (vm, guest page) pair into the key of the preallocated
// copy-on-write target index (PrepareCowTargets).
func CowKey(vm VMID, gp GuestPage) uint64 { return uint64(vm)<<32 | uint64(gp) }

// PrepareCowTargets preallocates one private host page per RO-shared
// (vm, guest page) mapping, in (VM id, guest page) order, and returns the
// target index keyed by CowKey. The machine calls this at setup, after
// MergeIdentical: a guest store to an RO-shared page (Section VI.A) then
// traps through a per-domain overlay table onto its fixed private target,
// other sharers keep the read-only copy, and the shared manager is never
// mutated at run time, so host-page numbering never depends on the order
// domains take their COW faults.
func (m *Manager) PrepareCowTargets() map[uint64]HostPage {
	targets := make(map[uint64]HostPage)
	vms := make([]VMID, 0, len(m.spaces))
	for vm := range m.spaces {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		s := m.spaces[vm]
		for gp := range s.table {
			e := &s.table[gp]
			if e.valid && e.typ == PageROShared {
				targets[CowKey(vm, GuestPage(gp))] = m.allocHost(PagePrivate)
			}
		}
	}
	return targets
}

// SetContent declares the content of a guest page, touching it first if
// needed. It is used by workload setup to mark pages whose contents are
// identical across VMs (e.g. guest kernel text, shared libraries).
func (m *Manager) SetContent(vm VMID, gp GuestPage, c ContentID) {
	m.Translate(vm, gp) // ensure allocated
	m.spaces[vm].table[gp].content = c
}

// MergeIdentical runs the idealized content-based sharing detector of
// Section VI.A: every pair of pages (across different VMs) with equal
// nonzero ContentIDs is merged onto one RO-shared host page. It runs at
// machine setup, before any cache holds a line, so memory already holds the
// clean copy that RO optimizations need (Section VI.B) and nothing has to
// be flushed. It returns the number of mappings that were redirected.
func (m *Manager) MergeIdentical() int {
	redirected := 0
	vms := make([]VMID, 0, len(m.spaces))
	for vm := range m.spaces {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		s := m.spaces[vm]
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
				m.hostType[canon] = PageROShared
				m.roSharers[canon] = map[VMID]bool{vm: true}
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
			m.roSharers[canon][vm] = true
			redirected++
		}
	}
	return redirected
}

// ShareRW marks a guest page of vm as RW-shared (an inter-VM communication
// ring or hypervisor-shared buffer). Multiple VMs may be mapped onto the
// same RW-shared host page by passing the host page returned from the
// first call.
func (m *Manager) ShareRW(vm VMID, gp GuestPage, existing HostPage, reuse bool) HostPage {
	s := m.spaces[vm]
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
	m.hostType[hp] = PageRWShared
	return hp
}

// ROSharers returns the VMs currently mapping RO-shared host page p, in
// ascending VMID order so callers may iterate deterministically.
func (m *Manager) ROSharers(p HostPage) []VMID {
	set := m.roSharers[p]
	out := make([]VMID, 0, len(set))
	for vm := range set {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SharedMatrix returns, for each ordered VM pair (a, b), the number of
// RO-shared host pages both currently map. It drives friend-VM selection
// (Section VI.B): a VM's friend is the VM it shares the most content with.
func (m *Manager) SharedMatrix() map[VMID]map[VMID]int {
	out := make(map[VMID]map[VMID]int)
	for _, sharers := range m.roSharers { //lint:ordered per-page pair counts are summed; addition commutes, so the matrix is order-free
		vms := make([]VMID, 0, len(sharers))
		for vm := range sharers { //lint:ordered pair counting below visits every (a,b) pair regardless of harvest order
			vms = append(vms, vm)
		}
		for _, a := range vms {
			for _, b := range vms {
				if a == b {
					continue
				}
				if out[a] == nil {
					out[a] = make(map[VMID]int)
				}
				out[a][b]++
			}
		}
	}
	return out
}

// FriendOf returns the VM sharing the most RO-shared pages with vm, using
// the lowest VMID to break ties. ok is false when vm shares nothing.
func (m *Manager) FriendOf(vm VMID) (friend VMID, ok bool) {
	row := m.SharedMatrix()[vm]
	best := -1
	for other, n := range row { //lint:ordered max under the total order (count, lowest VMID) — the winner is unique whatever the visit order
		if n > best || (n == best && other < friend) {
			best = n
			friend = other
		}
	}
	return friend, best >= 0
}
