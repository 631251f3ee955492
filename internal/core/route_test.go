package core

import (
	"math/bits"
	"slices"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/regionscout"
	"vsnoop/internal/token"
)

// TestRouteIntoReusedBuffer checks the token.Router word contract across
// every policy, page type, content mode and degradation level: Route
// writes its sets into the filter's own route words, whatever they held
// before, never holds the requester, keeps the two sets disjoint, never
// writes the vCPU map registers, and allocates nothing.
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
				maps := slices.Clone(f.mapBits)

				var infos []token.RouteInfo
				for _, page := range pages {
					for _, req := range []int{0, 2, 5, 12} {
						infos = append(infos, token.RouteInfo{VM: 1, Page: page, Requester: req,
							CoreNode: mesh.NodeID(req), Attempt: 1})
					}
				}
				for _, info := range infos {
					want := mesh.Endpoints(f.Route(info))
					for _, w := range f.route {
						for i := range w {
							w[i] = ^uint64(0)
						}
					}
					first, second := f.Route(info)
					if got := mesh.Endpoints(first, second); !slices.Equal(got, want) {
						t.Fatalf("%v/%v/level %d %+v: garbage-filled route words routed %v, clean ones %v",
							pol, content, level, info, got, want)
					}
					for i, set := range [][]uint64{first, second} {
						if set != nil && &set[0] != &f.route[i][0] {
							t.Fatalf("%v/%v/level %d %+v: set %d is not the filter's route words", pol, content, level, info, i)
						}
					}
					if slices.Contains(want, mesh.NodeID(info.Requester)) {
						t.Fatalf("%v/%v/level %d %+v: the route %v holds the requester", pol, content, level, info, want)
					}
					if second != nil && first[0]&second[0] != 0 {
						t.Fatalf("%v/%v/level %d %+v: the send sets %#x and %#x overlap", pol, content, level, info, first[0], second[0])
					}
				}
				avg := testing.AllocsPerRun(10, func() {
					for _, info := range infos {
						f.Route(info)
					}
				})
				if avg != 0 {
					t.Fatalf("%v/%v/level %d: routing allocates %.2f per batch", pol, content, level, avg)
				}
				if !slices.Equal(f.mapBits, maps) {
					t.Fatalf("%v/%v/level %d: routing wrote the map registers", pol, content, level)
				}
			}
		}
	}
}

// refRoute is Route as it was when it built destination lists: the
// requester's own set in ascending core order, then, for a friend-VM
// RO-shared route, the friend's map cores the list does not hold yet. It
// reads the filter's registers directly and appends to a fresh list.
// FuzzRouteOrder holds the word form to it.
func refRoute(f *Filter, info token.RouteInfo) []mesh.NodeID {
	req := info.Requester
	appendCores := func(out []mesh.NodeID, w []uint64) []mesh.NodeID {
		for wi, word := range w {
			for ; word != 0; word &= word - 1 {
				if c := wi<<6 | bits.TrailingZeros64(word); c != req {
					out = append(out, mesh.NodeID(c))
				}
			}
		}
		return out
	}
	all := func() []mesh.NodeID { return appendCores(nil, f.all) }
	domain := func() []mesh.NodeID {
		m := f.words(f.mapBits, info.VM)
		d := mem.DenseVM(info.VM)
		if !f.DegradationEnabled || d >= len(f.slots) {
			return appendCores(nil, m)
		}
		s := &f.slots[d]
		if s.level == 0 || f.eng.Now() > s.until {
			return appendCores(nil, m)
		}
		if s.level >= 2 {
			return all()
		}
		w := make([]uint64, f.nw)
		copy(w, m)
		f.scanResident(info.VM, s, w)
		return appendCores(nil, w)
	}
	if f.cfg.Policy == PolicyBroadcast {
		return all()
	}
	switch info.Page {
	case mem.PagePrivate:
		return domain()
	case mem.PageRWShared:
		return all()
	}
	switch f.cfg.Content {
	case ContentBroadcast:
		return all()
	case ContentMemoryDirect:
		return nil
	case ContentIntraVM:
		return domain()
	}
	out := domain()
	if d := mem.DenseVM(info.VM); d < len(f.friends) && f.friends[d].set {
		for _, n := range appendCores(nil, f.words(f.mapBits, f.friends[d].vm)) {
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// routeStream hands out the bytes of a fuzz input in turn, cycling, and 0
// for an empty input.
type routeStream struct {
	b []byte
	i int
}

func (s *routeStream) next() int {
	s.i++
	if len(s.b) == 0 {
		return 0
	}
	return int(s.b[(s.i-1)%len(s.b)])
}

// FuzzRouteOrder holds the word routes of the virtual-snooping filter and
// of RegionScout to the list routes they replaced: expanding a route's
// words in send order (mesh.Endpoints) must give exactly the list the old
// list-building Route gave. The fuzz input draws the geometry (16 cores,
// or 80 so that a set spans two words), the snoop and content policies,
// the placement of four VMs, friend pairs, VM data left in caches, the
// degradation level (0, 1 or 2) and the routed attempts: VM (one never
// seen included), page type, requester and attempt number, up to past
// token.DefaultParams' RetriesBeforeBroadcast. For RegionScout it draws
// region fills, drops and routes on both geometries; its old list was
// empty on a first attempt to a region in the requester's NSRT and every
// other core otherwise.
func FuzzRouteOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 3, 1, 4, 2, 7, 9, 3, 60, 5, 1, 2, 0, 1, 1, 4})
	f.Add([]byte{0, 1, 0, 2, 3, 0, 1, 4, 5, 2, 8, 9, 10, 11, 1, 3, 2, 200, 17})
	f.Add([]byte{1, 4, 2, 1, 7, 70, 71, 72, 79, 0, 64, 65, 5, 1, 1, 3, 2, 2})
	f.Add([]byte{0, 2, 3, 2, 5, 15, 14, 13, 12, 1, 6, 1, 1, 2, 0, 3, 4, 255, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &routeStream{b: data}
		cores := 16
		if s.next()&1 != 0 {
			cores = 80
		}
		policies := []Policy{PolicyBroadcast, PolicyBase, PolicyCounter, PolicyCounterThreshold, PolicyCounterFlush}
		contents := []ContentPolicy{ContentBroadcast, ContentMemoryDirect, ContentIntraVM, ContentFriendVM}
		pages := []mem.PageType{mem.PagePrivate, mem.PageRWShared, mem.PageROShared}
		cfg := Config{Policy: policies[s.next()%5], Content: contents[s.next()%4], Threshold: 2}
		level := s.next() % 3
		_, flt, caches, _ := testRig(t, cores, cfg)
		for vm := mem.VMID(1); vm <= 4; vm++ {
			for n := s.next() % 8; n >= 0; n-- {
				place(flt, vm, s.next()*7%cores)
			}
			if s.next()&1 != 0 {
				flt.SetFriend(vm, mem.VMID(1+s.next()%4))
			}
		}
		for i := s.next() % 8; i > 0; i-- {
			c, a, vm := caches[s.next()*5%cores], mem.BlockAddr(s.next()), mem.VMID(1+s.next()%4)
			if !c.Holds(a) {
				c.Insert(a, vm)
			}
		}
		if level > 0 {
			flt.DegradationEnabled = true
			for vm := mem.VMID(1); vm <= 4; vm++ {
				if s.next()&1 != 0 {
					flt.SuspectVM(vm, level)
				}
			}
		}
		retries := token.DefaultParams(cores).RetriesBeforeBroadcast
		for i := 0; i < 24; i++ {
			info := token.RouteInfo{VM: mem.VMID(1 + s.next()%5), Page: pages[s.next()%3],
				Requester: s.next() * 3 % cores, Attempt: 1 + s.next()%(retries+2)}
			info.CoreNode = mesh.NodeID(info.Requester)
			want := refRoute(flt, info)
			if got := mesh.Endpoints(flt.Route(info)); !slices.Equal(got, want) {
				t.Fatalf("%d cores, %+v, level %d, %+v: routed %v, the list form %v", cores, cfg, level, info, got, want)
			}
		}

		rs := regionscout.New(regionscout.Config{RegionBlocks: 4, NSRTEntries: 4}, cores, nil)
		held := map[[2]int]int{}
		for i := 0; i < 48; i++ {
			op, c, a := s.next(), s.next()*3%cores, s.next()%32
			addr := mem.BlockAddr(a)
			switch op % 3 {
			case 0:
				rs.RecordFill(c, addr)
				held[[2]int{c, a}]++
			case 1:
				if held[[2]int{c, a}] > 0 {
					rs.RecordDrop(c, addr)
					held[[2]int{c, a}]--
				}
			case 2:
				info := token.RouteInfo{Addr: addr, Requester: c, CoreNode: mesh.NodeID(c), Attempt: 1 + op/3%(retries+2)}
				var want []mesh.NodeID
				if info.Attempt > 1 || !rs.NSRTContains(c, rs.RegionOf(addr)) {
					for o := 0; o < cores; o++ {
						if o != c {
							want = append(want, mesh.NodeID(o))
						}
					}
				}
				if got := mesh.Endpoints(rs.Route(info)); !slices.Equal(got, want) {
					t.Fatalf("RegionScout, %d cores, %+v: routed %v, the list form %v", cores, info, got, want)
				}
			}
		}
	})
}
