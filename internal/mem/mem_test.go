package mem

import (
	"testing"
	"testing/quick"
)

func TestTranslateAllocatesLazily(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 16)
	tr1 := m.Translate(1, 3)
	tr2 := m.Translate(1, 3)
	if tr1.Host != tr2.Host {
		t.Fatal("repeat translation changed host page")
	}
	if tr1.Type != PagePrivate {
		t.Fatalf("fresh page type = %v, want VM-private", tr1.Type)
	}
	tr3 := m.Translate(1, 4)
	if tr3.Host == tr1.Host {
		t.Fatal("distinct guest pages mapped to same host page")
	}
}

func TestTranslateIsolationBetweenVMs(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 8)
	m.NewSpace(2, 8)
	a := m.Translate(1, 0)
	b := m.Translate(2, 0)
	if a.Host == b.Host {
		t.Fatal("two VMs share a private host page")
	}
}

func TestHypervisorRegionIsRWShared(t *testing.T) {
	m := NewManager(4)
	if m.HypervisorPages() != 4 {
		t.Fatalf("hv pages = %d", m.HypervisorPages())
	}
	for i := 0; i < 4; i++ {
		if m.TypeOf(m.HypervisorPage(i)) != PageRWShared {
			t.Fatalf("hypervisor page %d is not RW-shared", i)
		}
	}
	// wraps around
	if m.HypervisorPage(5) != m.HypervisorPage(1) {
		t.Fatal("HypervisorPage must wrap modulo region size")
	}
}

func TestMergeIdentical(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 8)
	m.NewSpace(2, 8)
	m.NewSpace(3, 8)
	m.SetContent(1, 0, 77)
	m.SetContent(2, 5, 77)
	m.SetContent(3, 2, 77)
	m.SetContent(1, 1, 88) // unique to VM 1: no cross-VM duplicate but same id only once
	n := m.MergeIdentical()
	if n != 2 {
		t.Fatalf("redirected %d mappings, want 2", n)
	}
	a := m.Translate(1, 0)
	b := m.Translate(2, 5)
	c := m.Translate(3, 2)
	if a.Host != b.Host || b.Host != c.Host {
		t.Fatal("identical-content pages not merged to one host page")
	}
	if a.Type != PageROShared {
		t.Fatalf("merged page type = %v, want RO-shared", a.Type)
	}
	sharers := m.ROSharers(a.Host)
	if len(sharers) != 3 {
		t.Fatalf("sharers = %v, want 3 VMs", sharers)
	}
	// Page with content 88 exists once; it becomes canonical RO-shared on
	// first merge pass (the paper's detector marks it shareable) but no
	// mapping is redirected.
	d := m.Translate(1, 1)
	if d.Type != PageROShared {
		t.Fatalf("single-copy content page type = %v", d.Type)
	}
}

func TestMergeIdempotent(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 4)
	m.NewSpace(2, 4)
	m.SetContent(1, 0, 5)
	m.SetContent(2, 0, 5)
	first := m.MergeIdentical()
	second := m.MergeIdentical()
	if first != 1 || second != 0 {
		t.Fatalf("merge counts = %d,%d want 1,0", first, second)
	}
}

func TestCopyOnWrite(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 4)
	m.NewSpace(2, 4)
	m.SetContent(1, 0, 9)
	m.SetContent(2, 0, 9)
	m.MergeIdentical()
	shared := m.Translate(1, 0).Host
	targets := m.PrepareCowTargets()
	fresh, ok := targets.Target(1, 0)
	if !ok {
		t.Fatal("no COW target for an RO-shared mapping")
	}
	if fresh == shared {
		t.Fatal("COW target is the shared page")
	}
	if m.TypeOf(fresh) != PagePrivate {
		t.Fatalf("COW target type = %v, want private", m.TypeOf(fresh))
	}
	if other, _ := targets.Target(2, 0); other == fresh || other == shared {
		t.Fatalf("VM 2's COW target %d aliases VM 1's %d or the shared page %d", other, fresh, shared)
	}
	// Preparing targets leaves the shared mappings as they are: both VMs
	// still read the shared copy until a store traps.
	if m.Translate(1, 0).Host != shared || m.Translate(2, 0).Host != shared {
		t.Fatal("preparing COW targets remapped a sharer")
	}
	if got := len(m.ROSharers(shared)); got != 2 {
		t.Fatalf("sharers = %d, want 2", got)
	}
}

func TestCowTargetsOnlyForROShared(t *testing.T) {
	m := NewManager(2)
	m.NewSpace(1, 4)
	m.Translate(1, 0)
	m.ShareRW(1, 1, 0, false)
	if targets := m.PrepareCowTargets(); targets.Len() != 0 {
		t.Fatalf("%d COW targets for private and RW-shared pages", targets.Len())
	}
}

func TestFriendOf(t *testing.T) {
	m := NewManager(0)
	for vm := VMID(1); vm <= 3; vm++ {
		m.NewSpace(vm, 16)
	}
	// VMs 1 and 2 share 3 pages; VMs 1 and 3 share 1 page.
	for c := ContentID(1); c <= 3; c++ {
		m.SetContent(1, GuestPage(c), c)
		m.SetContent(2, GuestPage(c), c)
	}
	m.SetContent(1, 10, 50)
	m.SetContent(3, 10, 50)
	m.MergeIdentical()
	f, ok := m.FriendOf(1)
	if !ok || f != 2 {
		t.Fatalf("FriendOf(1) = %d,%v want 2,true", f, ok)
	}
	f, ok = m.FriendOf(3)
	if !ok || f != 1 {
		t.Fatalf("FriendOf(3) = %d,%v want 1,true", f, ok)
	}
}

func TestFriendOfNoSharing(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 4)
	m.Translate(1, 0)
	if _, ok := m.FriendOf(1); ok {
		t.Fatal("FriendOf reported a friend with no sharing")
	}
}

func TestShareRW(t *testing.T) {
	m := NewManager(0)
	m.NewSpace(1, 4)
	m.NewSpace(2, 4)
	hp := m.ShareRW(1, 0, 0, false)
	hp2 := m.ShareRW(2, 3, hp, true)
	if hp != hp2 {
		t.Fatal("reuse did not map same host page")
	}
	if m.Translate(1, 0).Host != m.Translate(2, 3).Host {
		t.Fatal("RW-shared page not visible to both VMs")
	}
	if m.Translate(1, 0).Type != PageRWShared {
		t.Fatal("RW-shared type not set")
	}
}

func TestBlockAddressing(t *testing.T) {
	p := HostPage(10)
	b0 := BlockInPage(p, 0)
	b63 := BlockInPage(p, 63)
	if b0.PageOf() != p || b63.PageOf() != p {
		t.Fatal("block->page roundtrip failed")
	}
	if b63-b0 != 63 {
		t.Fatalf("page spans %d blocks, want 64", b63-b0+1)
	}
	bNext := BlockInPage(p+1, 0)
	if bNext != b63+1 {
		t.Fatal("pages are not block-contiguous")
	}
}

func TestBlockRoundtripProperty(t *testing.T) {
	err := quick.Check(func(pRaw uint32, iRaw uint8) bool {
		p := HostPage(pRaw)
		i := int(iRaw) % BlocksPerPage
		return BlockInPage(p, i).PageOf() == p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCOWNeverAliasesWritablePages(t *testing.T) {
	// Property: after any sequence of merges and COWs, no two VMs map the
	// same host page unless that page is RO- or RW-shared.
	m := NewManager(2)
	const vms = 4
	for vm := VMID(0); vm < vms; vm++ {
		m.NewSpace(vm, 32)
	}
	for vm := VMID(0); vm < vms; vm++ {
		for gp := GuestPage(0); gp < 32; gp++ {
			if gp < 8 {
				m.SetContent(vm, gp, ContentID(gp+1)) // common content
			} else {
				m.Translate(vm, gp)
			}
		}
	}
	m.MergeIdentical()
	targets := m.PrepareCowTargets()
	// Writers break sharing one page at a time, each onto its COW target.
	written := func(gp GuestPage) bool { return gp < 8 && gp%2 == 0 }
	owner := make(map[HostPage]VMID)
	for vm := VMID(0); vm < vms; vm++ {
		for gp := GuestPage(0); gp < 32; gp++ {
			tr := m.Translate(vm, gp)
			if written(gp) {
				host, _ := targets.Target(vm, gp)
				tr = Translation{Host: host, Type: PagePrivate}
			}
			if tr.Type != PagePrivate {
				continue
			}
			if prev, seen := owner[tr.Host]; seen && prev != vm {
				t.Fatalf("private host page %d aliased by VMs %d and %d", tr.Host, prev, vm)
			}
			owner[tr.Host] = vm
		}
	}
}
