package core

import (
	"slices"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// TestRouteIntoReusedBuffer checks the token.Router buffer contract across
// every policy, page type, content mode and degradation level: routing into
// a reused, garbage-filled buffer gives exactly the set a nil buffer gives,
// never writes into the shared broadcast sets, and allocates nothing.
func TestRouteIntoReusedBuffer(t *testing.T) {
	policies := []Policy{PolicyBroadcast, PolicyBase, PolicyCounter, PolicyCounterThreshold, PolicyCounterFlush}
	contents := []ContentPolicy{ContentBroadcast, ContentMemoryDirect, ContentIntraVM, ContentFriendVM}
	pages := []mem.PageType{mem.PagePrivate, mem.PageRWShared, mem.PageROShared}
	for _, pol := range policies {
		for _, content := range contents {
			for level := 0; level <= 2; level++ {
				_, f, caches, _ := testRig(t, 16, Config{Policy: pol, Content: content, Threshold: 2})
				place(f, 1, 0, 1, 2, 3)
				place(f, 2, 2, 5, 6, 7) // overlaps VM 1's map at core 2
				f.SetFriend(1, 2)
				// VM 1 data left behind on core 12 widens the level-1 set.
				caches[12].Insert(mem.BlockAddr(12), 1)
				if level > 0 {
					f.DegradationEnabled = true
					f.SuspectVM(1, level)
				}
				allBut := make([][]mesh.NodeID, len(f.allBut))
				for i, s := range f.allBut {
					allBut[i] = slices.Clone(s)
				}

				buf := make([]mesh.NodeID, 0, 17)
				var infos []token.RouteInfo
				for _, page := range pages {
					for _, req := range []int{0, 2, 5, 12} {
						infos = append(infos, token.RouteInfo{VM: 1, Page: page, Requester: req,
							CoreNode: mesh.NodeID(req), Attempt: 1})
					}
				}
				for _, info := range infos {
					want := f.Route(info, nil)
					buf = buf[:cap(buf)]
					for i := range buf {
						buf[i] = -1
					}
					got := f.Route(info, buf)
					if !slices.Equal(got, want) {
						t.Fatalf("%v/%v/level %d %+v: reused buffer routed %v, nil buffer %v",
							pol, content, level, info, got, want)
					}
				}
				avg := testing.AllocsPerRun(10, func() {
					for _, info := range infos {
						f.Route(info, buf)
					}
				})
				if avg != 0 {
					t.Fatalf("%v/%v/level %d: routing into a reused buffer allocates %.2f per batch",
						pol, content, level, avg)
				}
				for i := range allBut {
					if !slices.Equal(f.allBut[i], allBut[i]) {
						t.Fatalf("%v/%v/level %d: broadcast set %d changed to %v",
							pol, content, level, i, f.allBut[i])
					}
				}
			}
		}
	}
}
