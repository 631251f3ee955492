package system

import (
	"testing"

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

// TestCopyOnWritePerDomain pins the copy-on-write overlay's ownership:
// each snoop domain traps a VM's first write to a content-shared page into
// its own overlay, so a VM whose vCPUs span d domains takes exactly d
// traps, however many of its vCPUs write. A trap that also privatized the
// page in the VM's other domains would take one: their vCPUs miss in the
// TLB on that first touch and would find the private page.
func TestCopyOnWritePerDomain(t *testing.T) {
	// Two 16-vCPU VMs on an 8x4 mesh: the planner cuts four domains, and
	// each VM spans two of them.
	cfg := DefaultConfig()
	cfg.Cores, cfg.Mesh.Width, cfg.Mesh.Height = 32, 8, 4
	cfg.VMs, cfg.VCPUsPerVM = 2, 16
	cfg.ContentSharing = true
	cfg.NoHypervisor = true
	cfg.RefsPerVCPU, cfg.WarmupRefs = 400, 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := workload.NewLayout(workload.MustGet(cfg.workloadFor(0)), cfg.VCPUsPerVM).ContentRange()
	srcs := make([]RefSource, len(m.vcpus))
	spans := make(map[[2]int32]bool) // (VM, domain) pairs
	for i, v := range m.vcpus {
		srcs[i] = &cowWriter{read: mem.GuestPage(lo + 1), write: mem.GuestPage(lo), writeAt: 20 + 20*(i%cfg.VCPUsPerVM)}
		spans[[2]int32{int32(v.id.VM), m.plan.CoreDom[v.core]}] = true
	}
	want := len(spans)
	if want <= cfg.VMs {
		t.Fatalf("each VM spans one domain (%d VM-domain pairs); the test needs a VM across domains", want)
	}
	if err := m.ReplaceSources(srcs); err != nil {
		t.Fatal(err)
	}
	st := m.Run()
	if st.Cows != uint64(want) {
		t.Errorf("%d copy-on-write traps, want one per VM and domain (%d)", st.Cows, want)
	}
}
