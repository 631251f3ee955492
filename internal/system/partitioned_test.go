package system

import (
	"slices"
	"testing"

	"vsnoop/internal/core"
	"vsnoop/internal/hv"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// TestFriendOnEveryReplica pins the friend-VM content policy in a
// migrating machine: every filter replica, not only the first, routes a
// content-shared read miss to the friend VM's cores.
func TestFriendOnEveryReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContentSharing = true
	cfg.Filter.Policy, cfg.Filter.Content = core.PolicyCounter, core.ContentFriendVM
	cfg.MigrationPeriodMs = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.replicas) < 2 {
		t.Fatalf("%d filter replicas; the test needs several", len(m.replicas))
	}
	const vm = mem.VMID(0)
	if !m.hasFriend[vm] {
		t.Fatal("VM 0 has no friend VM")
	}
	friendCores := m.Mapper.RunningCores(m.friendOf[vm])
	if len(friendCores) == 0 {
		t.Fatal("the friend VM runs on no core")
	}
	req := m.Mapper.CoreOf(hv.VCPU{VM: vm})
	for d, rep := range m.replicas {
		got := mesh.Endpoints(rep.Route(token.RouteInfo{VM: vm, Page: mem.PageROShared, Requester: req, Attempt: 1}))
		for _, c := range friendCores {
			if !slices.Contains(got, m.cores[c].node) {
				t.Errorf("replica %d routes VM %d's shared read to %v, without friend core %d", d, vm, got, c)
			}
		}
	}
}

// TestLocationTables pins the own/fwd location rows the cross-domain
// event chase reads: each vCPU is owned by exactly one domain, that domain
// is the one its dom pointer names, and the owner's fwd entry points at
// itself — after construction and again after a migrating run's
// depart/arrive hand-offs.
func TestLocationTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 1000
	cfg.MigrationPeriodMs = 0.1
	cfg.Filter.Policy = core.PolicyCounter
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.own == nil || m.nv != len(m.vcpus) {
		t.Fatalf("location tables not built: own=%v nv=%d", m.own != nil, m.nv)
	}
	check := func(when string) {
		t.Helper()
		for i, v := range m.vcpus {
			for _, d := range m.doms {
				row := int(d.idx) * m.nv
				if m.own[row+i] != (d == v.dom) {
					t.Errorf("%s: vCPU %d in dom %d, but dom %d own = %v", when, i, v.dom.idx, d.idx, m.own[row+i])
				}
				if d == v.dom && m.fwd[row+i] != d.idx {
					t.Errorf("%s: dom %d owns vCPU %d but fwd points to %d", when, d.idx, i, m.fwd[row+i])
				}
			}
		}
	}
	check("after New")
	for _, d := range m.doms {
		n := 0
		for i := 0; i < m.nv; i++ {
			if m.own[int(d.idx)*m.nv+i] {
				n++
			}
		}
		if n != d.nvcpus {
			t.Errorf("dom %d owns %d vCPUs, nvcpus = %d", d.idx, n, d.nvcpus)
		}
	}
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocations == 0 {
		t.Fatal("migration run relocated nothing")
	}
	check("after Run")
}

// TestShuffleOnceSwapsAcrossVMsOnly pins the relocation approximation the
// shuffle tick and migration storms share: a swap exchanges vCPUs of two
// different VMs (never an idle core), every VM keeps its core count, and a
// vCPU whose previous move is still in the air is never picked.
func TestShuffleOnceSwapsAcrossVMsOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VMs = 2 // 8 vCPUs on 16 cores: half the picks land on idle cores
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.inflight = make([]bool, len(m.vcpus))
	frozen := hv.VCPU{VM: 1, Idx: 0}
	m.inflight[m.vcpuIndex(frozen)] = true
	frozenCore := m.Mapper.CoreOf(frozen)
	rng := sim.NewRand(1)
	swaps := 0
	for i := 0; i < 100; i++ {
		before := make([]hv.VCPU, m.Mapper.NumCores())
		for c := range before {
			before[c] = m.Mapper.On(c)
		}
		m.shuffleOnce(rng)
		var moved []int
		for c, v := range before {
			if m.Mapper.On(c) != v {
				moved = append(moved, c)
			}
		}
		if len(moved) == 0 {
			continue
		}
		if len(moved) != 2 {
			t.Fatalf("one shuffle changed %d cores", len(moved))
		}
		va, vb := before[moved[0]], before[moved[1]]
		if va == hv.NoVCPU || vb == hv.NoVCPU || va.VM == vb.VM {
			t.Fatalf("swapped %v and %v", va, vb)
		}
		swaps++
	}
	if swaps < 50 {
		t.Fatalf("%d swaps in 100 shuffles, want most", swaps)
	}
	if c := m.Mapper.CoreOf(frozen); c != frozenCore {
		t.Fatalf("in-flight vCPU moved from core %d to %d", frozenCore, c)
	}
	for vm := mem.VMID(0); vm < 2; vm++ {
		if got := len(m.Mapper.RunningCores(vm)); got != 4 {
			t.Fatalf("VM %d on %d cores after shuffles", vm, got)
		}
	}
}
