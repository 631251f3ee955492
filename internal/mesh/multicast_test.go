package mesh

import (
	"reflect"
	"testing"

	"vsnoop/internal/sim"
)

// Multicast must be exactly a loop of Send. The tests here run the same
// traffic through twin networks, one multicasting and one sending each
// unicast, and require the two to agree on everything observable: every
// delivery and every elided delivery with its (at, key, domain,
// destination), the link reservation table, and the traffic counters.

// The twin network is the 4x4 mesh plus two endpoints sharing the corner
// routers (0,0) and (3,3), the way memory controllers do, so zero-hop
// messages occur between distinct endpoints too.
const twinNodes = 18

// Elider behaviours of a twin run.
const (
	elideNone    = iota
	elidePark    // keeps every other delivery, by payload and destination
	elideDecline // sees every local delivery and keeps none
)

// twinSpec is one network configuration of the differential check.
type twinSpec struct {
	name       string
	contention bool
	degrade    bool
	doms       int // snoop domains (1, 2 or 4); 0 = no Partition call, which is one domain
	elide      int
	fault      bool
}

// mcast is one multicast of the traffic: src sends bytes to dsts at cycle
// at.
type mcast struct {
	at    sim.Cycle
	src   NodeID
	dsts  []NodeID
	bytes int
}

// delivery is one observed message: delivered by the handler ('d'), kept
// by the elider ('p'), or seen and declined by it ('q', to be delivered).
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
	events                    [][]delivery // per domain, in order
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
	obs := twinObs{events: make([][]delivery, nd)}
	nodeDom := make([]int32, twinNodes)
	for i := 0; i < twinNodes; i++ {
		x, y := twinXY(i)
		d := twinDom(i, sp.doms)
		nodeDom[i] = d
		id := NodeID(i)
		net.Attach(x, y, func(interface{}) {
			obs.events[d] = append(obs.events[d], delivery{eng.Now(), eng.CurKey(), d, id, 'd'})
		})
	}
	if sp.doms > 0 {
		net.Partition(nodeDom, nd)
	}
	if sp.degrade {
		net.DegradeLinks(8, 3, sim.NewRand(7))
	}
	if sp.elide != elideNone {
		for i := 0; i < twinNodes; i++ {
			id := NodeID(i)
			net.SetElider(id, func(at sim.Cycle, key uint64, dom int32, p interface{}) bool {
				park := sp.elide == elidePark && (p.(int)+int(id))%2 == 0
				how := byte('q')
				if park {
					how = 'p'
				}
				obs.events[dom] = append(obs.events[dom], delivery{at, key, dom, id, how})
				return park
			})
		}
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
	drive := func(_ interface{}, u uint64) {
		c := casts[u]
		if multicast {
			obs.queued += net.Multicast(c.src, c.dsts, c.bytes, int(u))
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
	for _, evs := range obs.events {
		for _, e := range evs {
			if e.how == 'd' {
				handled++
			}
		}
	}
	if obs.queued != handled {
		t.Fatalf("%s: the sends returned %d queued deliveries, the handlers got %d", sp.name, obs.queued, handled)
	}
	obs.nextFree = append([]sim.Cycle(nil), net.nextFree...)
	obs.byteHops, obs.bytes, obs.messages = net.TrafficTotals()
	return obs
}

// randomCasts draws n multicasts: random sources (the shared-router
// endpoints included), destination lists of 0 to twinNodes entries that
// may repeat and may name the source, 1 to 80 bytes, and arrival gaps of
// 0 to 3 cycles so that multicasts contend.
func randomCasts(rng *sim.Rand, n int) []mcast {
	casts := make([]mcast, n)
	at := sim.Cycle(0)
	for i := range casts {
		at += sim.Cycle(rng.Intn(4))
		dsts := make([]NodeID, rng.Intn(twinNodes+1))
		for j := range dsts {
			dsts[j] = NodeID(rng.Intn(twinNodes))
		}
		casts[i] = mcast{at: at, src: NodeID(rng.Intn(twinNodes)), dsts: dsts, bytes: 1 + rng.Intn(80)}
	}
	return casts
}

// checkTwins runs casts both ways on sp and fails on any difference.
func checkTwins(t testing.TB, sp twinSpec, casts []mcast) twinObs {
	t.Helper()
	sends := runTwin(t, sp, casts, false)
	multi := runTwin(t, sp, casts, true)
	if !reflect.DeepEqual(sends.events, multi.events) {
		for d := range sends.events {
			a, b := sends.events[d], multi.events[d]
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("%s: domain %d event %d: Send gives %+v, Multicast %+v", sp.name, d, i, a[i], b[i])
				}
			}
			if len(a) != len(b) {
				t.Fatalf("%s: domain %d: Send gives %d events, Multicast %d", sp.name, d, len(a), len(b))
			}
		}
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
	specs := []twinSpec{
		{name: "legacy", contention: true},
		{name: "legacy_no_contention"},
		{name: "legacy_degraded", contention: true, degrade: true},
		{name: "legacy_fault", contention: true, fault: true},
		{name: "one_domain", contention: true, doms: 1},
		{name: "two_domains_park", contention: true, doms: 2, elide: elidePark},
		{name: "four_domains_decline", contention: true, doms: 4, elide: elideDecline},
		{name: "four_domains_no_contention_park", doms: 4, elide: elidePark},
		{name: "four_domains_degraded_fault_park", contention: true, degrade: true, doms: 4,
			elide: elidePark, fault: true},
		{name: "four_domains_park", contention: true, doms: 4, elide: elidePark},
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
			for _, evs := range obs.events {
				for _, e := range evs {
					kinds[e.how]++
				}
			}
			switch {
			case kinds['d'] == 0:
				t.Fatal("nothing was delivered")
			case sp.elide == elidePark && kinds['p'] == 0:
				t.Fatal("the elider kept nothing")
			case sp.elide == elideDecline && kinds['q'] == 0:
				t.Fatal("the elider saw nothing")
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

// FuzzMulticastMatchesSends draws the partition, the network options and
// the multicasts (destination sets and sizes) from the fuzz input and
// applies the twin-network check of TestMulticastMatchesSends.
func FuzzMulticastMatchesSends(f *testing.F) {
	f.Add([]byte{0x00, 3, 2, 1, 0, 40})
	f.Add([]byte{0x1f, 5, 17, 16, 0, 15, 3, 3, 8, 9, 200})
	f.Add([]byte{0x76, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 72})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// data[0]: bits 0-1 partition (none, 1, 2 or 4 domains), bit 2
		// contention, bit 3 degraded links, bits 4-5 elider, bit 6 fault
		// hook. The rest is a stream of multicasts: a source byte, a
		// destination-count byte, the destinations, then a size byte.
		o := data[0]
		sp := twinSpec{name: "fuzz", contention: o&4 != 0, degrade: o&8 != 0,
			doms: [...]int{0, 1, 2, 4}[o&3], elide: int(o>>4&3) % 3, fault: o&64 != 0}
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
			if b, ok := next(); ok {
				c.bytes = 1 + b
			}
			casts = append(casts, c)
		}
		checkTwins(t, sp, casts)
	})
}
