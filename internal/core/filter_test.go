package core

import (
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// testRig builds a filter over n cores with per-core L2s.
func testRig(t testing.TB, n int, cfg Config) (*sim.Engine, *Filter, []*cache.Cache, []mesh.NodeID) {
	t.Helper()
	eng := sim.NewEngine()
	nodes := make([]mesh.NodeID, n)
	caches := make([]*cache.Cache, n)
	for i := range nodes {
		nodes[i] = mesh.NodeID(i)
		caches[i] = cache.New(cache.Config{Name: "L2", SizeBytes: 4096, Ways: 4, BlockBytes: 64})
	}
	f := NewFilter(eng, cfg, n, caches)
	return eng, f, caches, nodes
}

func place(f *Filter, vm mem.VMID, cores ...int) {
	for _, c := range cores {
		f.HandleRelocate(vm, -1, c)
	}
}

// route returns the filter's destination set for a first attempt, in
// send order.
func route(f *Filter, vm mem.VMID, page mem.PageType, req int) []mesh.NodeID {
	return mesh.Endpoints(f.Route(token.RouteInfo{VM: vm, Page: page, Requester: req, CoreNode: mesh.NodeID(req), Attempt: 1}))
}

func TestBroadcastPolicySnoopsEveryone(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBroadcast})
	place(f, 1, 0, 1, 2, 3)
	if got := len(route(f, 1, mem.PagePrivate, 0)); got != 15 {
		t.Fatalf("broadcast dests = %d, want 15", got)
	}
}

func TestPrivatePageUsesVCPUMap(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 1, 0, 1, 2, 3)
	place(f, 2, 4, 5, 6, 7)
	dests := route(f, 1, mem.PagePrivate, 0)
	if len(dests) != 3 {
		t.Fatalf("private dests = %v, want the 3 other map cores", dests)
	}
	for _, d := range dests {
		if int(d) > 3 {
			t.Fatalf("snooped core %d outside the VM's map", d)
		}
	}
}

func TestRWSharedAlwaysBroadcasts(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 1, 0, 1, 2, 3)
	if got := len(route(f, 1, mem.PageRWShared, 0)); got != 15 {
		t.Fatalf("RW-shared dests = %d, want broadcast (15)", got)
	}
}

func TestContentPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy ContentPolicy
		want   int
	}{
		{ContentBroadcast, 15},
		{ContentMemoryDirect, 0},
		{ContentIntraVM, 3},
		{ContentFriendVM, 7}, // own 3 + friend's 4
	} {
		_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase, Content: tc.policy})
		place(f, 1, 0, 1, 2, 3)
		place(f, 2, 4, 5, 6, 7)
		f.SetFriend(1, 2)
		if got := len(route(f, 1, mem.PageROShared, 0)); got != tc.want {
			t.Errorf("%v: dests = %d, want %d", tc.policy, got, tc.want)
		}
	}
}

func TestFriendVMDedupsOverlap(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase, Content: ContentFriendVM})
	place(f, 1, 0, 1, 2, 3)
	place(f, 2, 4, 5)
	// VM 2's map also accumulated core 3 through a past relocation.
	f.HandleRelocate(2, -1, 3)
	f.HandleRelocate(2, 3, 4) // moved away; base policy keeps core 3 in map
	f.SetFriend(1, 2)
	dests := route(f, 1, mem.PageROShared, 0)
	seen := map[mesh.NodeID]bool{}
	for _, d := range dests {
		if seen[d] {
			t.Fatalf("duplicate destination %d in %v", d, dests)
		}
		seen[d] = true
	}
}

func TestBaseNeverRemovesCores(t *testing.T) {
	_, f, caches, _ := testRig(t, 8, Config{Policy: PolicyBase})
	place(f, 1, 0)
	caches[0].Insert(100, 1)
	f.HandleRelocate(1, 0, 5)
	caches[0].Invalidate(100, caches[0].Lookup(100)) // VM 1 data gone from core 0
	if !f.Contains(1, 0) {
		t.Fatal("base policy removed a core")
	}
	if f.MapSize(1) != 2 {
		t.Fatalf("map = %v, want {0,5}", f.MapCores(1))
	}
}

func TestCounterRemovesCoreWhenDataGone(t *testing.T) {
	eng, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounter})
	place(f, 1, 0)
	b1, _, _ := caches[0].Insert(100, 1)
	b2, _, _ := caches[0].Insert(101, 1)
	f.HandleRelocate(1, 0, 5) // vCPU leaves core 0 with 2 blocks resident
	if !f.Contains(1, 0) {
		t.Fatal("core removed while data resident")
	}
	eng.RunUntil(50)
	caches[0].Invalidate(100, b1)
	if !f.Contains(1, 0) {
		t.Fatal("core removed with one block left")
	}
	eng.RunUntil(120)
	caches[0].Invalidate(101, b2)
	if f.Contains(1, 0) {
		t.Fatal("core not removed when counter hit zero")
	}
	// Removal period recorded for Figure 9: departed at ~0, removed at 120.
	if f.RemovalPeriods.N() != 1 {
		t.Fatalf("removal periods recorded = %d", f.RemovalPeriods.N())
	}
	if got := f.RemovalPeriods.Quantile(1); got != 120 {
		t.Fatalf("removal period = %v, want 120", got)
	}
}

func TestCounterRemovesImmediatelyWhenEmpty(t *testing.T) {
	_, f, _, _ := testRig(t, 8, Config{Policy: PolicyCounter})
	place(f, 1, 0)
	f.HandleRelocate(1, 0, 5) // no data was cached
	if f.Contains(1, 0) {
		t.Fatal("empty core not removed at relocation")
	}
}

func TestCounterKeepsCoreWhileVMRunsThere(t *testing.T) {
	_, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounter})
	place(f, 1, 0, 1)
	b, _, _ := caches[0].Insert(100, 1)
	caches[0].Invalidate(100, b) // counter reaches zero while still running
	if !f.Contains(1, 0) {
		t.Fatal("removed a core the VM still runs on")
	}
}

func TestCounterThresholdRemovesEarly(t *testing.T) {
	_, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounterThreshold, Threshold: 10})
	place(f, 1, 0)
	var blocks []*cache.Block
	for i := 0; i < 12; i++ {
		b, _, _ := caches[0].Insert(mem.BlockAddr(i), 1)
		blocks = append(blocks, b)
	}
	f.HandleRelocate(1, 0, 5)
	if !f.Contains(1, 0) {
		t.Fatal("removed with 12 blocks resident (threshold 10)")
	}
	caches[0].Invalidate(0, blocks[0]) // 11 left
	caches[0].Invalidate(1, blocks[1]) // 10 left: not yet below threshold
	if !f.Contains(1, 0) {
		t.Fatal("removed at exactly the threshold")
	}
	caches[0].Invalidate(2, blocks[2]) // 9 left: below threshold
	if f.Contains(1, 0) {
		t.Fatal("not removed below threshold")
	}
}

func TestRelocationGrowsMapUnderBase(t *testing.T) {
	_, f, caches, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 1, 0)
	caches[0].Insert(1, 1)
	cur := 0
	for next := 1; next < 16; next++ {
		caches[next].Insert(mem.BlockAddr(next*10), 1)
		f.HandleRelocate(1, cur, next)
		cur = next
	}
	if f.MapSize(1) != 16 {
		t.Fatalf("map size = %d, want 16 (base policy accumulates all cores)", f.MapSize(1))
	}
}

func TestRouteIsSortedAndDeterministic(t *testing.T) {
	_, f, _, _ := testRig(t, 16, Config{Policy: PolicyBase})
	place(f, 1, 3, 1, 7, 5)
	a := route(f, 1, mem.PagePrivate, 1)
	b := route(f, 1, mem.PagePrivate, 1)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("dests = %v / %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("route order not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatal("route not sorted")
		}
	}
}

func TestMapSyncsCounted(t *testing.T) {
	_, f, _, _ := testRig(t, 8, Config{Policy: PolicyCounter})
	place(f, 1, 0, 1)
	if f.MapSyncs != 2 {
		t.Fatalf("syncs = %d, want 2", f.MapSyncs)
	}
	f.HandleRelocate(1, 0, 2) // add core 2 (+1); core 0 empty: removed (+1)
	if f.MapSyncs != 4 {
		t.Fatalf("syncs = %d, want 4", f.MapSyncs)
	}
}

// Invariant: under the counter policy, any cache holding a VM's block is
// in that VM's map (filter conservativeness).
func TestCounterConservativeInvariant(t *testing.T) {
	eng, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounter})
	r := sim.NewRand(42)
	for vm := mem.VMID(0); vm < 2; vm++ {
		for i := 0; i < 2; i++ {
			place(f, vm, int(vm)*2+i)
		}
	}
	cur := map[mem.VMID][]int{0: {0, 1}, 1: {2, 3}}
	for step := 0; step < 2000; step++ {
		eng.RunUntil(sim.Cycle(step))
		vm := mem.VMID(r.Intn(2))
		switch r.Intn(4) {
		case 0: // insert a block on one of the VM's running cores
			c := cur[vm][r.Intn(2)]
			a := mem.BlockAddr(r.Intn(64))
			if caches[c].Lookup(a) == nil {
				caches[c].Insert(a, vm)
			}
		case 1: // invalidate a random block of the VM anywhere
			c := r.Intn(8)
			var victim *cache.Block
			var victimAddr mem.BlockAddr
			caches[c].ForEachValid(func(a mem.BlockAddr, b *cache.Block) {
				if b.VM == vm && victim == nil {
					victim, victimAddr = b, a
				}
			})
			if victim != nil {
				caches[c].Invalidate(victimAddr, victim)
			}
		case 2, 3: // relocate one of the VM's vCPUs to a free core
			free := -1
			occupied := map[int]bool{}
			for _, cs := range cur {
				for _, c := range cs {
					occupied[c] = true
				}
			}
			for c := 0; c < 8; c++ {
				if !occupied[c] {
					free = c
					break
				}
			}
			if free == -1 {
				continue
			}
			idx := r.Intn(2)
			from := cur[vm][idx]
			f.HandleRelocate(vm, from, free)
			cur[vm][idx] = free
		}
		// Check the invariant.
		for c := 0; c < 8; c++ {
			for checkVM := mem.VMID(0); checkVM < 2; checkVM++ {
				if caches[c].Resident(checkVM) > 0 && !f.Contains(checkVM, c) {
					t.Fatalf("step %d: core %d holds VM %d data but is not in its map", step, c, checkVM)
				}
			}
		}
	}
}

func TestCounterFlushFlushesAndRemoves(t *testing.T) {
	_, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounterFlush, Threshold: 10})
	flushed := map[int]mem.VMID{}
	f.OnFlushVM = func(core int, vm mem.VMID) {
		flushed[core] = vm
		caches[core].FlushVM(vm)
	}
	place(f, 1, 0)
	for i := 0; i < 12; i++ {
		caches[0].Insert(mem.BlockAddr(i), 1)
	}
	f.HandleRelocate(1, 0, 5)
	if !f.Contains(1, 0) {
		t.Fatal("removed above threshold")
	}
	// Drop below the threshold: the filter must flush the rest and remove.
	caches[0].Invalidate(0, caches[0].Lookup(0))
	caches[0].Invalidate(1, caches[0].Lookup(1))
	caches[0].Invalidate(2, caches[0].Lookup(2))
	if f.Contains(1, 0) {
		t.Fatal("not removed below threshold")
	}
	if flushed[0] != 1 {
		t.Fatalf("flush hook not invoked: %v", flushed)
	}
	if caches[0].Resident(1) != 0 {
		t.Fatalf("blocks remain after flush: %d", caches[0].Resident(1))
	}
	if f.Flushes != 1 {
		t.Fatalf("Flushes = %d", f.Flushes)
	}
}

func TestCounterFlushAtRelocationWhenBelowThreshold(t *testing.T) {
	_, f, caches, _ := testRig(t, 8, Config{Policy: PolicyCounterFlush, Threshold: 10})
	f.OnFlushVM = func(core int, vm mem.VMID) { caches[core].FlushVM(vm) }
	place(f, 1, 0)
	for i := 0; i < 5; i++ { // below threshold already
		caches[0].Insert(mem.BlockAddr(i), 1)
	}
	f.HandleRelocate(1, 0, 5)
	if f.Contains(1, 0) {
		t.Fatal("core kept despite below-threshold occupancy at relocation")
	}
	if caches[0].Resident(1) != 0 {
		t.Fatal("blocks not flushed at relocation")
	}
}
