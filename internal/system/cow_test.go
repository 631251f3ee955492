package system

import (
	"testing"

	"vsnoop/internal/hv"
	"vsnoop/internal/mem"
	"vsnoop/internal/workload"
)

// cowWriter streams reads over one content-shared guest page and, at
// reference writeAt, makes its first touch of another one: a write.
type cowWriter struct {
	read, write mem.GuestPage
	n, writeAt  int
}

func (s *cowWriter) Next() workload.Ref {
	s.n++
	if s.n == s.writeAt {
		return workload.Ref{Ctx: workload.CtxGuest, Page: s.write, Write: true}
	}
	return workload.Ref{Ctx: workload.CtxGuest, Page: s.read, Block: s.n % mem.BlocksPerPage}
}

// TestCopyOnWritePerDomain pins how copy-on-write traps count across snoop
// domains: a VM's first write to a content-shared page traps once and
// privatizes the page for every vCPU of that VM, whichever domain it runs
// in, onto the preallocated target, without touching the global page
// tables or other VMs' view of the page. Relocations at setup spread each
// VM over several quadrant domains first, so a per-domain overlay would
// trap once per (VM, domain) pair instead.
func TestCopyOnWritePerDomain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContentSharing = true
	cfg.NoHypervisor = true
	cfg.RefsPerVCPU, cfg.WarmupRefs = 400, 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap vCPU 3 of each VM with vCPU 0 of the next VM.
	for q := 0; q < cfg.VMs; q++ {
		a := m.Mapper.CoreOf(hv.VCPU{VM: mem.VMID(q), Idx: 3})
		b := m.Mapper.CoreOf(hv.VCPU{VM: mem.VMID((q + 1) % cfg.VMs), Idx: 0})
		m.Mapper.Swap(a, b)
	}
	lo, _ := workload.NewLayout(workload.MustGet(cfg.workloadFor(0)), cfg.VCPUsPerVM).ContentRange()
	write := mem.GuestPage(lo)
	// The last VM only reads: its view of the page must stay shared.
	const reader = mem.VMID(3)
	srcs := make([]RefSource, len(m.vcpus))
	spans := make(map[[2]int32]bool) // (VM, domain) pairs
	for i, v := range m.vcpus {
		w := &cowWriter{read: write + 1, write: write, writeAt: 20 + 20*(i%cfg.VCPUsPerVM)}
		if v.id.VM == reader {
			w.writeAt = 0
		}
		srcs[i] = w
		spans[[2]int32{int32(v.id.VM), m.coreDom[v.core]}] = true
	}
	if len(spans) < 2*cfg.VMs {
		t.Fatalf("%d VM-domain pairs; the test needs every VM across domains", len(spans))
	}
	if err := m.ReplaceSources(srcs); err != nil {
		t.Fatal(err)
	}
	st := m.Run()
	if want := uint64(cfg.VMs - 1); st.Cows != want {
		t.Errorf("%d copy-on-write traps, want one per writing VM (%d)", st.Cows, want)
	}
	for vm := mem.VMID(0); int(vm) < cfg.VMs; vm++ {
		if tr := m.MM.Translate(vm, write); tr.Type != mem.PageROShared {
			t.Fatalf("VM %d: global page tables mutated by the trap: %+v", vm, tr)
		}
		tr := m.translate(vm, write)
		if vm == reader {
			if tr.Type != mem.PageROShared {
				t.Errorf("VM %d never wrote but translates to %+v", vm, tr)
			}
			continue
		}
		if target, _ := m.cowTargets.Target(vm, write); tr.Type != mem.PagePrivate || tr.Host != target {
			t.Errorf("VM %d translates to %+v, want its private target %v", vm, tr, target)
		}
	}
}

// TestCowOverlayDomainLocal pins the overlay's scope directly: targets are
// preallocated at setup, and an overlay entry privatizes the page for its
// VM in every domain alike (translate takes no domain) while another VM
// sharing the page and the global page tables keep the shared
// translation.
func TestCowOverlayDomainLocal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContentSharing = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.doms) <= 1 {
		t.Fatal("content config planned a single domain")
	}
	if m.cowTargets.Len() == 0 {
		t.Fatal("no COW targets preallocated for a content-sharing config")
	}
	// The first (VM, guest page) with a target: a deterministic pick.
	var (
		vm     mem.VMID
		gp     mem.GuestPage
		target mem.HostPage
	)
find:
	for vm = 0; int(vm) < cfg.VMs; vm++ {
		for gp = 0; int(gp) < m.MM.Space(vm).Pages(); gp++ {
			var ok bool
			if target, ok = m.cowTargets.Target(vm, gp); ok {
				break find
			}
		}
	}
	other := (vm + 1) % mem.VMID(cfg.VMs)
	for _, v := range []mem.VMID{vm, other} {
		if tr := m.MM.Translate(v, gp); tr.Type != mem.PageROShared {
			t.Fatalf("VM %d: page not RO-shared before the trap: %v", v, tr.Type)
		}
	}
	m.cow[mem.CowKey(vm, gp)] = mem.Translation{Host: target, Type: mem.PagePrivate}
	if got := m.translate(vm, gp); got.Type != mem.PagePrivate || got.Host != target {
		t.Fatalf("overlay translation = %+v, want private page %v", got, target)
	}
	if tr := m.translate(other, gp); tr.Type != mem.PageROShared {
		t.Fatalf("VM %d's translation changed: %+v", other, tr)
	}
	if tr := m.MM.Translate(vm, gp); tr.Type != mem.PageROShared {
		t.Fatalf("global page tables mutated by overlay trap: %+v", tr)
	}
}
