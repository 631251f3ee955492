package mesh

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"vsnoop/internal/sim"
)

// Multicast must be exactly a loop of Send. The tests here run the same
// traffic through twin networks, one multicasting and one sending each
// unicast, and require the two to agree on everything observable: every
// delivery with its (at, key, domain, destination), the link reservation
// table, and the traffic counters. A delivery Multicast's keep mask keeps
// must be exactly the delivery Send queued for it, so the Send side marks
// what its handlers get for a kept destination as kept.

// The twin network is the 4x4 mesh plus two endpoints sharing the corner
// routers (0,0) and (3,3), the way memory controllers do, so zero-hop
// messages occur between distinct endpoints too.
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
}

// mcast is one multicast of the traffic: src sends bytes to dsts at cycle
// at, keeping the deliveries to the endpoints in keep under keepSome.
type mcast struct {
	at    sim.Cycle
	src   NodeID
	dsts  []NodeID
	bytes int
	keep  uint64
}

// mask returns the keep mask c is sent with under sp.
func (c mcast) mask(sp twinSpec) uint64 {
	switch sp.keep {
	case keepSome:
		return c.keep
	case keepAll:
		return 1<<twinNodes - 1
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
// the Send or Multicast calls returned.
type twinObs struct {
	queued                    int
	events                    []delivery // in (at, key) order
	nextFree                  []sim.Cycle
	byteHops, bytes, messages uint64
}

// twinXY returns node i's router.
func twinXY(i int) (x, y int) {
	if i >= 16 {
		return (i - 16) * 3, (i - 16) * 3
	}
	return i % 4, i / 4
}

// twinDom returns node i's domain under a partition into doms column or
// quadrant domains (each an axis-aligned rectangle, as Partition needs).
func twinDom(i, doms int) int32 {
	x, y := twinXY(i)
	switch doms {
	case 2:
		return int32(x / 2)
	case 4:
		return int32(y/2*2 + x/2)
	}
	return 0
}

// runTwin runs casts on a fresh network built to sp, through Multicast or
// through one Send per destination, and returns what it observed.
func runTwin(t testing.TB, sp twinSpec, casts []mcast, multicast bool) twinObs {
	t.Helper()
	cfg := DefaultConfig()
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
	nodeDom := make([]int32, twinNodes)
	for i := 0; i < twinNodes; i++ {
		x, y := twinXY(i)
		d := twinDom(i, sp.doms)
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
				return FaultOutcome{Redirected: true, RedirectTo: NodeID(rng.Intn(twinNodes))}
			}
			return FaultOutcome{}
		}
	}
	var buf []Delivery
	drive := func(_ interface{}, u uint64) {
		c := casts[u]
		if multicast {
			var q int
			q, buf = net.Multicast(c.src, c.dsts, c.bytes, int(u), c.mask(sp), buf[:0])
			obs.queued += q
			for _, k := range buf {
				obs.events = append(obs.events, delivery{k.At, k.Key, k.Dom, NodeID(k.Dst), 'k'})
			}
			return
		}
		for _, d := range c.dsts {
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

// randomCasts draws n multicasts: random sources (the shared-router
// endpoints included), destination lists of 0 to twinNodes entries that
// may repeat and may name the source, 1 to 80 bytes, random keep masks,
// and arrival gaps of 0 to 3 cycles so that multicasts contend.
func randomCasts(rng *sim.Rand, n int) []mcast {
	casts := make([]mcast, n)
	at := sim.Cycle(0)
	for i := range casts {
		at += sim.Cycle(rng.Intn(4))
		dsts := make([]NodeID, rng.Intn(twinNodes+1))
		for j := range dsts {
			dsts[j] = NodeID(rng.Intn(twinNodes))
		}
		casts[i] = mcast{at: at, src: NodeID(rng.Intn(twinNodes)), dsts: dsts, bytes: 1 + rng.Intn(80),
			keep: rng.Uint64n(1 << twinNodes)}
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
	// empty keep mask through a partitioned network.
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
	}
	casts := randomCasts(sim.NewRand(42), 400)
	shared := 0
	for _, c := range casts {
		sx, sy := twinXY(int(c.src))
		for _, d := range c.dsts {
			if dx, dy := twinXY(int(d)); dx == sx && dy == sy && d != c.src {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no zero-hop message between shared-router endpoints")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			obs := checkTwins(t, sp, casts)
			// The traffic must have exercised what the case is about.
			kinds := map[byte]int{}
			for _, e := range obs.events {
				kinds[e.how]++
			}
			switch {
			case sp.keep != keepAll && kinds['d'] == 0:
				t.Fatal("nothing was delivered")
			case sp.keep == keepAll && kinds['d'] != 0:
				t.Fatalf("%d deliveries queued under a mask that keeps all", kinds['d'])
			case sp.keep != keepNone && kinds['k'] == 0:
				t.Fatal("nothing was kept")
			case sp.doms > 1 && crossCasts(casts, sp.doms) == 0:
				t.Fatal("no cross-domain message")
			}
		})
	}
}

// crossCasts counts the messages of casts whose destination lies in
// another of doms domains than their source.
func crossCasts(casts []mcast, doms int) int {
	n := 0
	for _, c := range casts {
		for _, d := range c.dsts {
			if twinDom(int(c.src), doms) != twinDom(int(d), doms) {
				n++
			}
		}
	}
	return n
}

// FuzzMulticastMatchesSends draws the partition, the network options, the
// keep masks and the multicasts (destination sets and sizes) from the fuzz
// input and applies the twin-network check of TestMulticastMatchesSends.
func FuzzMulticastMatchesSends(f *testing.F) {
	f.Add([]byte{0x00, 3, 2, 1, 0, 40})
	f.Add([]byte{0x1f, 5, 17, 16, 0, 15, 3, 3, 8, 9, 200})
	f.Add([]byte{0x76, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 72})
	f.Add([]byte{0x6e, 2, 4, 1, 3, 5, 7, 9, 16, 5, 3, 17, 16, 0, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// data[0]: bits 0-1 partition (none, 1, 2 or 4 domains), bit 2
		// contention, bit 3 degraded links, bits 4-5 keep mask (none, each
		// multicast's own, all), bit 6 fault hook. The rest is a stream of
		// multicasts: a source byte, a destination-count byte, the
		// destinations, then a size byte. A multicast's own keep mask is
		// spread from its source and size bytes.
		o := data[0]
		sp := twinSpec{name: "fuzz", contention: o&4 != 0, degrade: o&8 != 0,
			doms: [...]int{0, 1, 2, 4}[o&3], keep: int(o>>4&3) % 3, fault: o&64 != 0}
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
			c := mcast{at: sim.Cycle(len(casts) / 2), src: NodeID(src % twinNodes), bytes: 8}
			n, _ := next()
			for i := 0; i < n%(twinNodes+1); i++ {
				d, ok := next()
				if !ok {
					break
				}
				c.dsts = append(c.dsts, NodeID(d%twinNodes))
			}
			b, ok := next()
			if ok {
				c.bytes = 1 + b
			}
			c.keep = uint64(src<<8|b) * 0x9E3779B97F4A7C15 >> (64 - twinNodes)
			casts = append(casts, c)
		}
		checkTwins(t, sp, casts)
	})
}
