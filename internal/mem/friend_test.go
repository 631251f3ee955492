package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// contentLayout is one random content-sharing setup: the VMs that get a
// space, the content each guest page declares (0: none) and the pages
// mapped RW-shared before the merge.
type contentLayout struct {
	vms     []VMID
	pages   int
	content map[VMID][]ContentID
	rw      map[VMID][]bool
}

// randomLayout builds a layout of n guest VMs (plus, with sentinels, the
// three reserved VMIDs) over a pool of contents. Homogeneous layouts draw
// every content from one pool any VM may share; heterogeneous ones split
// the VMs into profiles whose contents never cross. Each content lands in
// 2 to all VMs of its profile, sometimes on two pages of one VM, and about
// one page in eight is RW-shared (its content must never count).
func randomLayout(rng *rand.Rand, n int, heterogeneous, sentinels bool) contentLayout {
	l := contentLayout{pages: 48, content: map[VMID][]ContentID{}, rw: map[VMID][]bool{}}
	for vm := 0; vm < n; vm++ {
		l.vms = append(l.vms, VMID(vm))
	}
	if sentinels {
		l.vms = append(l.vms, 0xFFFD, 0xFFFE, Hypervisor)
	}
	profiles := 1
	if heterogeneous {
		profiles = 2 + rng.Intn(3)
	}
	groups := make([][]VMID, profiles)
	for _, vm := range l.vms {
		l.content[vm] = make([]ContentID, l.pages)
		l.rw[vm] = make([]bool, l.pages)
		for gp := range l.rw[vm] {
			l.rw[vm][gp] = rng.Intn(8) == 0
		}
		g := rng.Intn(profiles)
		groups[g] = append(groups[g], vm)
	}
	next := ContentID(1)
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		for c := 0; c < 3*l.pages/2; c++ {
			k := 2 + rng.Intn(len(g)-1) // 2..len(g) sharers
			if rng.Intn(6) == 0 {
				k = len(g)
			}
			for _, i := range rng.Perm(len(g))[:k] {
				vm := g[i]
				l.content[vm][rng.Intn(l.pages)] = next // may overwrite: contents end up in fewer VMs
				if rng.Intn(5) == 0 {
					l.content[vm][rng.Intn(l.pages)] = next // a duplicate within the VM
				}
			}
			next++
		}
	}
	return l
}

// build declares the layout on a fresh manager and merges it: the first
// VMs, then the rest in spaces created after that merge, merged again.
func (l contentLayout) build(first int) *Manager {
	m := NewManager(2)
	for _, batch := range [][]VMID{l.vms[:first], l.vms[first:]} {
		for _, vm := range batch {
			m.NewSpace(vm, l.pages)
		}
		for _, vm := range batch {
			for gp := 0; gp < l.pages; gp++ {
				if l.rw[vm][gp] {
					m.ShareRW(vm, GuestPage(gp), 0, false)
				}
				if c := l.content[vm][gp]; c != 0 {
					m.SetContent(vm, GuestPage(gp), c)
				}
			}
		}
		m.MergeIdentical()
	}
	return m
}

// bruteSharers maps each content to the VMs declaring it on a page that is
// not RW-shared, in ascending VMID order.
func (l contentLayout) bruteSharers() map[ContentID][]VMID {
	out := map[ContentID][]VMID{}
	for _, vm := range l.vms {
		for gp, c := range l.content[vm] {
			if c != 0 && !l.rw[vm][gp] && !slices.Contains(out[c], vm) {
				out[c] = append(out[c], vm)
			}
		}
	}
	for _, s := range out {
		slices.Sort(s)
	}
	return out
}

// bruteFriend counts, for every other VM, the contents both it and vm
// declare, and returns the highest count's VM, ties to the lowest VMID.
func bruteFriend(l contentLayout, sharers map[ContentID][]VMID, vm VMID) (VMID, bool) {
	count := map[VMID]int{}
	for _, s := range sharers {
		if !slices.Contains(s, vm) {
			continue
		}
		for _, other := range s {
			if other != vm {
				count[other]++
			}
		}
	}
	best, friend := 0, VMID(0)
	for _, other := range l.vms {
		if n := count[other]; n > best || (n == best && n > 0 && other < friend) {
			best, friend = n, other
		}
	}
	return friend, best > 0
}

// checkLayout compares the manager's ROSharers and FriendOf with the
// brute-force pair count over the layout, built as build(first) does.
func checkLayout(t *testing.T, l contentLayout, first int) {
	t.Helper()
	m := l.build(first)
	sharers := l.bruteSharers()
	for _, vm := range l.vms {
		for gp, c := range l.content[vm] {
			tr := m.Translate(vm, GuestPage(gp))
			if c == 0 || l.rw[vm][gp] {
				if tr.Type == PageROShared {
					t.Fatalf("VM %d page %d (content %d, rw %v) is RO-shared", vm, gp, c, l.rw[vm][gp])
				}
				continue
			}
			if tr.Type != PageROShared || m.TypeOf(tr.Host) != PageROShared {
				t.Fatalf("VM %d page %d with content %d: type %v, host type %v", vm, gp, c, tr.Type, m.TypeOf(tr.Host))
			}
			if got, want := m.ROSharers(tr.Host), sharers[c]; !slices.Equal(got, want) {
				t.Fatalf("ROSharers of content %d = %v, want %v", c, got, want)
			}
		}
	}
	for _, vm := range l.vms {
		gf, gok := m.FriendOf(vm)
		wf, wok := bruteFriend(l, sharers, vm)
		if gf != wf || gok != wok {
			t.Fatalf("FriendOf(%d) = %d,%v; brute force %d,%v", vm, gf, gok, wf, wok)
		}
	}
}

// TestFriendOfMatchesBruteForce is the differential test of the dense
// sharer sets and the shared-page matrix: random homogeneous and
// heterogeneous layouts, with and without the reserved VMIDs, on 2 to 70
// guest VMs (more than 64 dense VMs needs a second bitset word), merged
// at once or in two passes with spaces added between them.
func TestFriendOfMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{2, 3, 4, 7, 16, 61, 62, 70} {
		for trial := 0; trial < 6; trial++ {
			l := randomLayout(rng, n, trial%2 == 1, trial%3 == 2)
			first := len(l.vms)
			if trial >= 4 {
				first /= 2
			}
			checkLayout(t, l, first)
		}
	}
}

// TestFriendOfTies pins the tie-break: equal counts go to the lowest
// VMID, including against a reserved VMID whose dense index is lower.
func TestFriendOfTies(t *testing.T) {
	l := contentLayout{pages: 8, content: map[VMID][]ContentID{}, rw: map[VMID][]bool{}}
	l.vms = []VMID{2, 5, 7, 9, 69, 0xFFFD}
	for _, vm := range l.vms {
		l.content[vm] = make([]ContentID, l.pages)
		l.rw[vm] = make([]bool, l.pages)
	}
	share := func(c ContentID, gp int, vms ...VMID) {
		for _, vm := range vms {
			l.content[vm][gp] = c
		}
	}
	share(1, 0, 5, 9)    // 5 and 9 tie with two pages each ...
	share(2, 1, 5, 9, 7) // ... 7 has one with each
	share(3, 2, 5, 7)    // ... and one more with 5: 5-7 ties 5-9
	share(4, 3, 69, 0xFFFD)
	share(5, 4, 69, 2)
	share(6, 5, 0xFFFD, 7)
	share(7, 6, 2, 0xFFFD)
	l.rw[2][7], l.content[2][7] = true, 8 // RW-shared: never counted
	l.content[69][7] = 8
	checkLayout(t, l, len(l.vms))
	m := l.build(len(l.vms))
	for vm, want := range map[VMID]VMID{5: 7, 9: 5, 7: 5, 69: 2, 0xFFFD: 2, 2: 69} {
		if got, ok := m.FriendOf(vm); !ok || got != want {
			t.Errorf("FriendOf(%d) = %d,%v, want %d", vm, got, ok, want)
		}
	}
}

// TestTypeOfUnallocated: a host page never allocated, inside or past the
// table, is VM-private.
func TestTypeOfUnallocated(t *testing.T) {
	m := NewManager(2)
	m.NewSpace(1, 4)
	last := m.Translate(1, 0).Host
	m.ShareRW(1, 1, last+5, true) // types a page past the allocation frontier
	for _, p := range []HostPage{last + 1, last + 4, last + 6, 1 << 40} {
		if got := m.TypeOf(p); got != PagePrivate {
			t.Errorf("TypeOf(%d) = %v, want VM-private", p, got)
		}
	}
	if got := m.TypeOf(last + 5); got != PageRWShared {
		t.Errorf("TypeOf(%d) = %v, want RW-shared", last+5, got)
	}
	if got := m.ROSharers(1 << 40); len(got) != 0 {
		t.Errorf("ROSharers of an unallocated page = %v", got)
	}
}

// TestRedeclaredContent: a merged page whose content is declared anew
// becomes the canonical copy of the new content, with the redeclaring VM
// its only sharer, so the pairs it counted before no longer count.
func TestRedeclaredContent(t *testing.T) {
	m := NewManager(0)
	for vm := VMID(1); vm <= 3; vm++ {
		m.NewSpace(vm, 4)
		m.SetContent(vm, 0, 5)
	}
	m.SetContent(2, 1, 7)
	m.SetContent(3, 1, 7)
	m.MergeIdentical()
	shared := m.Translate(1, 0).Host
	m.SetContent(1, 0, 6)
	m.MergeIdentical()
	if got := m.ROSharers(shared); !slices.Equal(got, []VMID{1}) {
		t.Fatalf("ROSharers after redeclaring = %v, want [1]", got)
	}
	if f, ok := m.FriendOf(1); ok {
		t.Fatalf("FriendOf(1) = %d, want none", f)
	}
	if f, ok := m.FriendOf(2); !ok || f != 3 {
		t.Fatalf("FriendOf(2) = %d,%v, want 3", f, ok)
	}
}
