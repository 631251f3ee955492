package mesh

import (
	"cmp"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"vsnoop/internal/sim"
)

// Multicast must be exactly a loop of Send. The tests here run the same
// traffic through twin networks, one multicasting and one sending each
// unicast, and require the two to agree on everything observable: every
// delivery with its (at, key, domain, destination), the link reservation
// table, and the traffic counters. A delivery Multicast's keep mask keeps,
// listed or derived, must be exactly the delivery Send queued for it, so
// the Send side marks what its handlers get for a kept destination as
// kept, and the Multicast side recomputes each derived delivery with
// DerivedDelivery.

// The twin network is a mesh plus two endpoints sharing the corner
// routers, the way memory controllers do, so zero-hop messages occur
// between distinct endpoints too: 4x4 (18 endpoints), or 8x8 (66, more
// than a derivation table covers).
const twinNodes = 18

// Keep masks of a twin run.
const (
	keepNone = iota
	keepSome // each multicast's own mask
	keepAll
)

// twinSpec is one network configuration of the differential check.
type twinSpec struct {
	name       string
	contention bool
	degrade    bool
	doms       int // snoop domains (1, 2 or 4); 0 = no Partition call, which is one domain
	keep       int
	fault      bool
	big        bool // the 8x8 network
}

// side returns the mesh side of sp's network, and nodes its endpoints.
func (sp twinSpec) side() int {
	if sp.big {
		return 8
	}
	return 4
}

func (sp twinSpec) nodes() int { return sp.side()*sp.side() + 2 }

// mcast is one multicast of the traffic: src sends bytes to the endpoints
// of sets[0], then of sets[1], then to last unless it is negative, at
// cycle at, keeping the deliveries to the endpoints in keep under
// keepSome.
type mcast struct {
	at    sim.Cycle
	src   NodeID
	sets  [2][]uint64
	last  NodeID
	bytes int
	keep  uint64
}

// dsts lists c's destinations in send order.
func (c mcast) dsts() []NodeID {
	out := Endpoints(c.sets[0], c.sets[1])
	if c.last >= 0 {
		out = append(out, c.last)
	}
	return out
}

// mask returns the keep mask c is sent with under sp.
func (c mcast) mask(sp twinSpec) uint64 {
	switch sp.keep {
	case keepSome:
		return c.keep
	case keepAll:
		return ^uint64(0)
	}
	return 0
}

// delivery is one observed message: delivered by the handler ('d') or
// kept ('k').
type delivery struct {
	at  sim.Cycle
	key uint64
	dom int32
	dst NodeID
	how byte
}

// twinObs is everything one side of a twin run observed. queued sums what
// the Send or Multicast calls returned, and derived counts the kept
// deliveries Multicast derived.
type twinObs struct {
	queued                    int
	derived                   int
	events                    []delivery // in (at, key) order
	nextFree                  []sim.Cycle
	byteHops, bytes, messages uint64
}

// twinXY returns node i's router in sp's network.
func (sp twinSpec) xy(i int) (x, y int) {
	n := sp.side()
	if i >= n*n {
		c := (i - n*n) * (n - 1)
		return c, c
	}
	return i % n, i / n
}

// dom returns node i's domain under a partition into sp.doms column or
// quadrant domains (each an axis-aligned rectangle, as Partition needs).
func (sp twinSpec) dom(i int) int32 {
	x, y := sp.xy(i)
	h := sp.side() / 2
	switch sp.doms {
	case 2:
		return int32(x / h)
	case 4:
		return int32(y/h*2 + x/h)
	}
	return 0
}

// runTwin runs casts on a fresh network built to sp, through Multicast or
// through one Send per destination, and returns what it observed.
func runTwin(t testing.TB, sp twinSpec, casts []mcast, multicast bool) twinObs {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = sp.side(), sp.side()
	cfg.Contention = sp.contention
	nd := sp.doms
	if nd == 0 {
		nd = 1
	}
	eng := sim.NewEngine()
	if sp.doms > 0 {
		eng.SetDomains(nd)
	}
	net := New(eng, cfg)
	var obs twinObs
	nodeDom := make([]int32, sp.nodes())
	for i := range nodeDom {
		x, y := sp.xy(i)
		d := sp.dom(i)
		nodeDom[i] = d
		id := NodeID(i)
		net.Attach(x, y, func(p interface{}) {
			how := byte('d')
			if casts[p.(int)].mask(sp)>>uint(id)&1 != 0 {
				// Send's delivery to a kept destination stands for the
				// kept one; Multicast must never queue one.
				how = 'k'
				if multicast {
					how = 'x'
				}
			}
			obs.events = append(obs.events, delivery{eng.Now(), eng.CurKey(), d, id, how})
		})
	}
	if sp.doms > 0 {
		net.Partition(nodeDom, nd)
	}
	if sp.degrade {
		net.DegradeLinks(8, 3, sim.NewRand(7))
	}
	if sp.fault {
		rng := sim.NewRand(5)
		net.FaultHook = func(src, dst NodeID, bytes int, payload interface{}) FaultOutcome {
			switch rng.Intn(8) {
			case 0:
				return FaultOutcome{Drop: true}
			case 1:
				return FaultOutcome{Duplicate: true}
			case 2:
				return FaultOutcome{Delay: sim.Cycle(1 + rng.Intn(20))}
			case 3:
				return FaultOutcome{Redirected: true, RedirectTo: NodeID(rng.Intn(sp.nodes()))}
			}
			return FaultOutcome{}
		}
	}
	var k Kept
	drive := func(_ interface{}, u uint64) {
		c := casts[u]
		if multicast {
			k.Keep, k.Derive = c.mask(sp), true
			obs.queued += net.Multicast(c.src, c.sets[0], c.sets[1], c.last, c.bytes, int(u), &k)
			// Every kept delivery, listed or derived, and the latest of
			// them, which the call must report.
			all := append([]Delivery(nil), k.List...)
			for m := k.Derived; m != 0; m &= m - 1 {
				all = append(all, net.DerivedDelivery(&k, NodeID(bits.TrailingZeros64(m))))
			}
			var mask uint64
			var last Delivery
			for _, p := range all {
				obs.events = append(obs.events, delivery{p.At, p.Key, p.Dom, NodeID(p.Dst), 'k'})
				mask |= 1 << uint(p.Dst)
				if p.At > last.At || p.At == last.At && p.Key > last.Key {
					last = p
				}
			}
			if mask != k.Mask || k.Count() != len(all) {
				t.Fatalf("%s: kept mask %#x of %d deliveries, the deliveries name %#x", sp.name, k.Mask, k.Count(), mask)
			}
			if len(all) > 0 && (last.At != k.LastAt || last.Key != k.LastKey) {
				t.Fatalf("%s: the call reports the latest kept delivery at (%d, %d), it is %+v", sp.name, k.LastAt, k.LastKey, last)
			}
			obs.derived += bits.OnesCount64(k.Derived)
			return
		}
		for _, d := range c.dsts() {
			obs.queued += net.Send(c.src, d, c.bytes, int(u))
		}
	}
	for i, c := range casts {
		if sp.doms == 0 {
			eng.ScheduleFnAt(c.at, drive, nil, uint64(i))
			continue
		}
		sd := nodeDom[c.src]
		eng.SetCurDomain(sd)
		eng.ScheduleFnAtDom(c.at, sd, drive, nil, uint64(i))
	}
	eng.Run()
	handled := 0
	for _, e := range obs.events {
		if e.how != 'k' || !multicast {
			handled++
		}
	}
	if obs.queued != handled {
		t.Fatalf("%s: the sends returned %d queued deliveries, the handlers got %d", sp.name, obs.queued, handled)
	}
	// Keys are unique across domains, so (at, key) orders every delivery.
	slices.SortFunc(obs.events, func(a, b delivery) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.key, b.key))
	})
	obs.nextFree = append([]sim.Cycle(nil), net.nextFree...)
	obs.byteHops, obs.bytes, obs.messages = net.TrafficTotals()
	return obs
}

// castOf builds a multicast from src to dsts in their given order of
// appearance: a destination goes into the second send set when its entry
// of inSecond is set (and the first set does not hold it), else into the
// first (unless the second holds it); a repeated destination is sent once.
func castOf(sp twinSpec, at sim.Cycle, src NodeID, dsts []NodeID, inSecond []bool, last NodeID, bytes int, keep uint64) mcast {
	c := mcast{at: at, src: src, last: last, bytes: bytes, keep: keep}
	words := (sp.nodes() + 63) / 64
	c.sets = [2][]uint64{make([]uint64, words), make([]uint64, words)}
	for i, d := range dsts {
		w, bit := d>>6, uint64(1)<<(uint(d)&63)
		if (c.sets[0][w]|c.sets[1][w])&bit != 0 {
			continue
		}
		s := 0
		if inSecond[i] {
			s = 1
		}
		c.sets[s][w] |= bit
	}
	return c
}

// randomCasts draws n multicasts: random sources (the shared-router
// endpoints included), destination sets of 0 to all endpoints that may
// name the source, split at random between the two send sets, a last
// destination half the time, 1 to 80 bytes, random keep masks, and
// arrival gaps of 0 to 3 cycles so that multicasts contend.
func randomCasts(sp twinSpec, rng *sim.Rand, n int) []mcast {
	nodes := sp.nodes()
	casts := make([]mcast, n)
	at := sim.Cycle(0)
	for i := range casts {
		at += sim.Cycle(rng.Intn(4))
		dsts := make([]NodeID, rng.Intn(nodes+1))
		second := make([]bool, len(dsts))
		for j := range dsts {
			dsts[j] = NodeID(rng.Intn(nodes))
			second[j] = rng.Intn(3) == 0
		}
		last := NodeID(-1)
		if rng.Intn(2) == 0 {
			last = NodeID(rng.Intn(nodes))
		}
		casts[i] = castOf(sp, at, NodeID(rng.Intn(nodes)), dsts, second, last, 1+rng.Intn(80), rng.Uint64())
	}
	return casts
}

// checkTwins runs casts both ways on sp and fails on any difference.
func checkTwins(t testing.TB, sp twinSpec, casts []mcast) twinObs {
	t.Helper()
	sends := runTwin(t, sp, casts, false)
	multi := runTwin(t, sp, casts, true)
	if !reflect.DeepEqual(sends.events, multi.events) {
		a, b := sends.events, multi.events
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s: delivery %d: Send gives %+v, Multicast %+v", sp.name, i, a[i], b[i])
			}
		}
		t.Fatalf("%s: Send gives %d deliveries, Multicast %d", sp.name, len(a), len(b))
	}
	if !reflect.DeepEqual(sends.nextFree, multi.nextFree) {
		t.Fatalf("%s: link reservations differ:\nSend      %v\nMulticast %v", sp.name, sends.nextFree, multi.nextFree)
	}
	if sends.byteHops != multi.byteHops || sends.bytes != multi.bytes || sends.messages != multi.messages {
		t.Fatalf("%s: traffic differs: Send (%d, %d, %d), Multicast (%d, %d, %d)", sp.name,
			sends.byteHops, sends.bytes, sends.messages, multi.byteHops, multi.bytes, multi.messages)
	}
	return multi
}

func TestMulticastMatchesSends(t *testing.T) {
	// A case named "park" keeps some deliveries; "decline" passes an
	// empty keep mask through a partitioned network. Kept deliveries are
	// derived wherever the network has derivation tables (a partition of
	// at most 64 endpoints) and no fault hook, so "big" cases list every
	// kept delivery.
	specs := []twinSpec{
		{name: "legacy", contention: true},
		{name: "legacy_no_contention"},
		{name: "legacy_degraded", contention: true, degrade: true},
		{name: "legacy_fault", contention: true, fault: true},
		{name: "legacy_fault_park", contention: true, keep: keepSome, fault: true},
		{name: "one_domain", contention: true, doms: 1},
		{name: "one_domain_park_all", contention: true, doms: 1, keep: keepAll},
		{name: "two_domains_park", contention: true, doms: 2, keep: keepSome},
		{name: "two_domains_no_contention_park", doms: 2, keep: keepSome},
		{name: "four_domains_decline", contention: true, doms: 4},
		{name: "four_domains_park_all", contention: true, doms: 4, keep: keepAll},
		{name: "four_domains_no_contention_park", doms: 4, keep: keepSome},
		{name: "four_domains_degraded_fault_park", contention: true, degrade: true, doms: 4,
			keep: keepSome, fault: true},
		{name: "four_domains_park", contention: true, doms: 4, keep: keepSome},
		{name: "four_domains_degraded_park", contention: true, degrade: true, doms: 4, keep: keepSome},
		{name: "big_four_domains_park", contention: true, big: true, doms: 4, keep: keepSome},
		{name: "big_legacy_park_all", contention: true, big: true, keep: keepAll},
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			n := 400
			if sp.big {
				n = 100
			}
			casts := randomCasts(sp, sim.NewRand(42), n)
			shared, second := 0, 0
			for _, c := range casts {
				sx, sy := sp.xy(int(c.src))
				for _, d := range c.dsts() {
					if dx, dy := sp.xy(int(d)); dx == sx && dy == sy && d != c.src {
						shared++
					}
				}
				second += int(popcount(c.sets[1]))
			}
			if shared == 0 || second == 0 {
				t.Fatalf("%d zero-hop messages between shared-router endpoints, %d second-set destinations; want some of each", shared, second)
			}
			obs := checkTwins(t, sp, casts)
			// The traffic must have exercised what the case is about.
			kinds := map[byte]int{}
			for _, e := range obs.events {
				kinds[e.how]++
			}
			derives := sp.doms > 0 && !sp.big && !sp.fault && sp.keep != keepNone
			switch {
			case sp.keep != keepAll && kinds['d'] == 0:
				t.Fatal("nothing was delivered")
			case sp.keep == keepAll && !sp.big && kinds['d'] != 0:
				t.Fatalf("%d deliveries queued under a mask that keeps all", kinds['d'])
			case sp.keep != keepNone && kinds['k'] == 0:
				t.Fatal("nothing was kept")
			case sp.doms > 1 && crossCasts(sp, casts) == 0:
				t.Fatal("no cross-domain message")
			case derives && obs.derived == 0:
				t.Fatal("nothing was derived")
			case derives && obs.derived == kinds['k'] && sp.contention && sp.doms > 0:
				t.Fatal("every kept delivery was derived: no contended one was listed")
			case !derives && obs.derived != 0:
				t.Fatalf("%d deliveries derived where none may be", obs.derived)
			}
		})
	}
}

// crossCasts counts the messages of casts whose destination lies in
// another of sp's domains than their source.
func crossCasts(sp twinSpec, casts []mcast) int {
	n := 0
	for _, c := range casts {
		for _, d := range c.dsts() {
			if sp.dom(int(c.src)) != sp.dom(int(d)) {
				n++
			}
		}
	}
	return n
}

// FuzzMulticastMatchesSends draws the partition, the network options, the
// keep masks and the multicasts (send sets, last destinations and sizes)
// from the fuzz input and applies the twin-network check of
// TestMulticastMatchesSends.
func FuzzMulticastMatchesSends(f *testing.F) {
	f.Add([]byte{0x00, 3, 2, 1, 0, 40})
	f.Add([]byte{0x1f, 5, 17, 16, 0, 15, 3, 3, 8, 9, 200})
	f.Add([]byte{0x76, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 72})
	f.Add([]byte{0x6e, 2, 4, 1, 3, 5, 7, 9, 16, 5, 3, 17, 16, 0, 31})
	f.Add([]byte{0x2f, 7, 6, 0x81, 2, 0x90, 65, 44, 9, 9, 0, 3, 0x85, 60, 64, 20})
	f.Add([]byte{0xa7, 1, 8, 0, 0x83, 2, 12, 0x8f, 10, 64, 65, 3, 6, 5, 0x81, 0x82, 17, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// data[0]: bits 0-1 partition (none, 1, 2 or 4 domains), bit 2
		// contention, bit 3 degraded links, bits 4-5 keep mask (none, each
		// multicast's own, all), bit 6 fault hook, bit 7 the 8x8 network.
		// The rest is a stream of multicasts: a source byte, a
		// destination-count byte, the destinations (bit 7 of each puts it
		// in the second send set), then a size byte, whose low bit adds a
		// last destination. A multicast's own keep mask is spread from its
		// source and size bytes.
		o := data[0]
		sp := twinSpec{name: "fuzz", contention: o&4 != 0, degrade: o&8 != 0,
			doms: [...]int{0, 1, 2, 4}[o&3], keep: int(o>>4&3) % 3, fault: o&64 != 0, big: o&128 != 0}
		nodes := sp.nodes()
		next := func() (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			data = data[1:]
			return int(data[0]), true
		}
		var casts []mcast
		for len(casts) < 64 {
			src, ok := next()
			if !ok {
				break
			}
			var dsts []NodeID
			var second []bool
			n, _ := next()
			for i := 0; i < n%(nodes+1); i++ {
				d, ok := next()
				if !ok {
					break
				}
				dsts = append(dsts, NodeID(d&0x7f%nodes))
				second = append(second, d&0x80 != 0)
			}
			bytes, last := 8, NodeID(-1)
			b, ok := next()
			if ok {
				bytes = 1 + b
				if b&1 != 0 {
					last = NodeID((src + b) % nodes)
				}
			}
			keep := uint64(src<<8|b) * 0x9E3779B97F4A7C15
			casts = append(casts, castOf(sp, sim.Cycle(len(casts)/2), NodeID(src%nodes), dsts, second, last, bytes, keep))
		}
		checkTwins(t, sp, casts)
	})
}
