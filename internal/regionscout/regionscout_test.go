package regionscout

import (
	"slices"
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

func rig(n int) (*Filter, []*cache.Cache) {
	caches := make([]*cache.Cache, n)
	for i := range caches {
		caches[i] = cache.New(cache.Config{Name: "L2", SizeBytes: 8192, Ways: 4, BlockBytes: 64})
	}
	return New(DefaultConfig(), n, caches), caches
}

func route(f *Filter, req int, addr mem.BlockAddr) []mesh.NodeID {
	return mesh.Endpoints(f.Route(token.RouteInfo{Addr: addr, Requester: req, Attempt: 1}))
}

func TestFirstRequestBroadcastsThenLearns(t *testing.T) {
	f, caches := rig(4)
	// First request to a region no one caches: broadcast + discovery.
	if got := len(route(f, 0, 100)); got != 3 {
		t.Fatalf("first request dests = %d, want broadcast", got)
	}
	if f.Totals().Discoveries != 1 {
		t.Fatalf("discoveries = %d", f.Totals().Discoveries)
	}
	caches[0].Insert(100, 1) // requester fills
	// Second request to the same region: NSRT hit, memory-direct.
	if got := len(route(f, 0, 101)); got != 0 {
		t.Fatalf("NSRT-covered request dests = %d, want 0", got)
	}
	if f.Totals().NSRTHits != 1 {
		t.Fatalf("NSRT hits = %d", f.Totals().NSRTHits)
	}
}

func TestSharedRegionNeverEntersNSRT(t *testing.T) {
	f, caches := rig(4)
	caches[2].Insert(100, 1) // core 2 holds a block of the region
	if got := len(route(f, 0, 101)); got != 3 {
		t.Fatalf("dests = %d", got)
	}
	if f.Totals().Discoveries != 0 {
		t.Fatal("shared region was learned as not-shared")
	}
	if got := len(route(f, 0, 102)); got != 0 && f.Totals().NSRTHits > 0 {
		t.Fatal("shared region got NSRT-filtered")
	}
}

func TestExternalRequestKnocksOutNSRT(t *testing.T) {
	f, _ := rig(4)
	route(f, 0, 100) // core 0 learns region not-shared
	if !f.NSRTContains(0, f.RegionOf(100)) {
		t.Fatal("discovery did not populate NSRT")
	}
	route(f, 1, 105) // core 1 requests the same region
	if f.NSRTContains(0, f.RegionOf(100)) {
		t.Fatal("external request did not knock out the NSRT entry")
	}
	if f.Totals().Knockouts != 1 {
		t.Fatalf("knockouts = %d", f.Totals().Knockouts)
	}
}

func TestPresenceTracksCache(t *testing.T) {
	f, caches := rig(2)
	r := f.RegionOf(100)
	caches[1].Insert(100, 1)
	caches[1].Insert(101, 1)
	if f.Present(1, r) != 2 {
		t.Fatalf("present = %d", f.Present(1, r))
	}
	caches[1].Invalidate(100, caches[1].Lookup(100))
	if f.Present(1, r) != 1 {
		t.Fatalf("present after drop = %d", f.Present(1, r))
	}
	caches[1].Invalidate(101, caches[1].Lookup(101))
	if f.Present(1, r) != 0 {
		t.Fatalf("present after all dropped = %d", f.Present(1, r))
	}
}

func TestNSRTCapacityEviction(t *testing.T) {
	cfg := Config{RegionBlocks: 64, NSRTEntries: 2}
	f := New(cfg, 2, nil)
	for i := 0; i < 3; i++ {
		f.Route(token.RouteInfo{Addr: mem.BlockAddr(i * 64), Requester: 0, Attempt: 1})
	}
	inNSRT := 0
	for i := 0; i < 3; i++ {
		if f.NSRTContains(0, Region(i)) {
			inNSRT++
		}
	}
	if inNSRT != 2 {
		t.Fatalf("NSRT holds %d regions, capacity 2", inNSRT)
	}
	// Oldest (region 0) must be the evicted one.
	if f.NSRTContains(0, 0) {
		t.Fatal("LRU region survived capacity eviction")
	}
}

func TestRetryBypassesNSRT(t *testing.T) {
	f, _ := rig(4)
	route(f, 0, 100)
	// A retry (attempt 2) must broadcast even with an NSRT hit available,
	// mirroring the token protocol's safe-retry escalation.
	dests := mesh.Endpoints(f.Route(token.RouteInfo{Addr: 100, Requester: 0, Attempt: 2}))
	if len(dests) != 3 {
		t.Fatalf("retry dests = %d, want broadcast", len(dests))
	}
}

func TestBadRegionSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two region accepted")
		}
	}()
	New(Config{RegionBlocks: 48, NSRTEntries: 4}, 1, nil)
}

// TestRouteWritesOwnWords checks Route against the token.Router word
// contract: a broadcast is written into the router's own words, the same
// ones on every call, never holds the requester, and the same call learns
// the unshared region at once.
func TestRouteWritesOwnWords(t *testing.T) {
	f, _ := rig(4)
	first, second := f.Route(token.RouteInfo{Addr: 200, Requester: 2, Attempt: 1})
	if got := mesh.Endpoints(first, second); !slices.Equal(got, []mesh.NodeID{0, 1, 3}) {
		t.Fatalf("dests = %v, want [0 1 3]", got)
	}
	again, second := f.Route(token.RouteInfo{Addr: 100, Requester: 1, Attempt: 1})
	if got, want := mesh.Endpoints(again, second), []mesh.NodeID{0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("dests = %v, want %v", got, want)
	}
	if &first[0] != &again[0] {
		t.Fatal("the second broadcast was not written into the router's words")
	}
	if !f.NSRTContains(1, f.RegionOf(100)) {
		t.Fatal("broadcast to an unshared region did not learn it")
	}
}
