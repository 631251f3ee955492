package mesh

import (
	"testing"
	"testing/quick"

	"vsnoop/internal/sim"
)

func build(t *testing.T, contention bool) (*sim.Engine, *Network, []NodeID) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contention = contention
	net := New(eng, cfg)
	ids := make([]NodeID, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			ids[y*4+x] = net.Attach(x, y, nil)
		}
	}
	return eng, net, ids
}

// routeDirs mirrors the inline XY walk in transmit, returning the direction
// taken at each hop, so the routing-shape properties stay testable now that
// no route slice is materialized on the send path.
func routeDirs(net *Network, src, dst NodeID) []int {
	bx, by := net.Coords(dst)
	x, y := net.Coords(src)
	var dirs []int
	for x != bx || y != by {
		var dir int
		switch {
		case bx > x:
			dir = dirEast
		case bx < x:
			dir = dirWest
		case by > y:
			dir = dirSouth
		default:
			dir = dirNorth
		}
		dirs = append(dirs, dir)
		switch dir {
		case dirEast:
			x++
		case dirWest:
			x--
		case dirSouth:
			y++
		default:
			y--
		}
	}
	return dirs
}

func TestHopsIsManhattan(t *testing.T) {
	_, net, ids := build(t, false)
	if got := net.Hops(ids[0], ids[15]); got != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", got)
	}
	if got := net.Hops(ids[0], ids[0]); got != 0 {
		t.Fatalf("self hops = %d", got)
	}
	if got := net.Hops(ids[1], ids[2]); got != 1 {
		t.Fatalf("neighbor hops = %d", got)
	}
}

func TestHopsManhattanProperty(t *testing.T) {
	_, net, ids := build(t, false)
	err := quick.Check(func(a, b uint8) bool {
		s := ids[int(a)%16]
		d := ids[int(b)%16]
		sx, sy := net.Coords(s)
		dx, dy := net.Coords(d)
		want := abs(sx-dx) + abs(sy-dy)
		return net.Hops(s, d) == want && len(routeDirs(net, s, d)) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroLoadLatency(t *testing.T) {
	_, net, ids := build(t, false)
	// 1 hop, 8-byte control: 1*(4+1) + ceil(8/16)=1 -> 6 cycles.
	if got := net.Latency(ids[0], ids[1], 8); got != 6 {
		t.Fatalf("1-hop 8B latency = %d, want 6", got)
	}
	// 6 hops, 72-byte data: 6*5 + ceil(72/16)=5 -> 35.
	if got := net.Latency(ids[0], ids[15], 72); got != 35 {
		t.Fatalf("6-hop 72B latency = %d, want 35", got)
	}
	// Local delivery: router + serialization.
	if got := net.Latency(ids[0], ids[0], 8); got != 5 {
		t.Fatalf("local latency = %d, want 5", got)
	}
}

func TestDeliveryAndPayload(t *testing.T) {
	eng, net, ids := build(t, false)
	var got interface{}
	var at sim.Cycle
	net.SetHandler(ids[5], func(p interface{}) { got = p; at = eng.Now() })
	net.Send(ids[0], ids[5], 8, "hello")
	eng.Run()
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	want := net.Latency(ids[0], ids[5], 8)
	if at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
}

func TestContentionSerializes(t *testing.T) {
	eng, net, ids := build(t, true)
	var times []sim.Cycle
	net.SetHandler(ids[1], func(interface{}) { times = append(times, eng.Now()) })
	// Two 64-byte messages on the same link at once: the second must wait
	// for the first's 4-cycle serialization on the shared link.
	net.Send(ids[0], ids[1], 64, nil)
	net.Send(ids[0], ids[1], 64, nil)
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	if times[1] <= times[0] {
		t.Fatalf("no serialization: %v", times)
	}
	gap := times[1] - times[0]
	if gap != 4 { // ceil(64/16)
		t.Fatalf("serialization gap = %d, want 4", gap)
	}
}

func TestContentionOnlyOnSharedLinks(t *testing.T) {
	eng, net, ids := build(t, true)
	var t01, t23 sim.Cycle
	net.SetHandler(ids[1], func(interface{}) { t01 = eng.Now() })
	net.SetHandler(ids[3], func(interface{}) { t23 = eng.Now() })
	net.Send(ids[0], ids[1], 64, nil) // link (0,0)->E
	net.Send(ids[2], ids[3], 64, nil) // link (2,0)->E, disjoint
	eng.Run()
	if t01 != t23 {
		t.Fatalf("disjoint paths interfered: %d vs %d", t01, t23)
	}
}

func TestTrafficAccounting(t *testing.T) {
	_, net, ids := build(t, false)
	net.Send(ids[0], ids[15], 72, nil) // 6 hops, 5 flits = 80 bytes
	net.Send(ids[0], ids[1], 8, nil)   // 1 hop, 1 flit = 16 bytes
	byteHops, bytes, messages := net.TrafficTotals()
	if bytes != 96 {
		t.Fatalf("bytes = %d, want 96 (flit-quantized)", bytes)
	}
	if byteHops != 80*6+16*1 {
		t.Fatalf("byte-hops = %d, want %d", byteHops, 80*6+16)
	}
	if messages != 2 {
		t.Fatalf("messages = %d", messages)
	}
}

func TestMulticastChargesPerDestination(t *testing.T) {
	eng, net, ids := build(t, false)
	delivered := 0
	for _, id := range []NodeID{ids[1], ids[2], ids[3]} {
		net.SetHandler(id, func(interface{}) { delivered++ })
	}
	// A multicast is one unicast per destination: no broadcast tree.
	for _, d := range []NodeID{ids[1], ids[2], ids[3]} {
		net.Send(ids[0], d, 8, nil)
	}
	eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered = %d", delivered)
	}
	byteHops, _, messages := net.TrafficTotals()
	if messages != 3 {
		t.Fatalf("messages = %d", messages)
	}
	if byteHops != 16*(1+2+3) {
		t.Fatalf("byte-hops = %d, want %d (one flit per hop)", byteHops, 16*6)
	}
}

func TestXYRouteNeverBacktracks(t *testing.T) {
	_, net, ids := build(t, false)
	err := quick.Check(func(a, b uint8) bool {
		s, d := ids[int(a)%16], ids[int(b)%16]
		r := routeDirs(net, s, d)
		// XY: all X-direction links first, then all Y-direction links.
		seenY := false
		for _, dir := range r {
			isY := dir == dirNorth || dir == dirSouth
			if seenY && !isY {
				return false
			}
			if isY {
				seenY = true
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedRouterEndpoints(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig())
	core := net.Attach(0, 0, nil)
	mc := net.Attach(0, 0, nil) // memory controller on the same router
	if net.Hops(core, mc) != 0 {
		t.Fatal("co-located endpoints should be 0 hops apart")
	}
	got := false
	net.SetHandler(mc, func(interface{}) { got = true })
	net.Send(core, mc, 8, nil)
	eng.Run()
	if !got {
		t.Fatal("local message not delivered")
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() (sim.Cycle, uint64) {
		eng, net, ids := build(t, true)
		var last sim.Cycle
		for i := range ids {
			net.SetHandler(ids[i], func(interface{}) { last = eng.Now() })
		}
		r := sim.NewRand(99)
		for i := 0; i < 200; i++ {
			net.Send(ids[r.Intn(16)], ids[r.Intn(16)], 8+r.Intn(64), nil)
		}
		eng.Run()
		byteHops, _, _ := net.TrafficTotals()
		return last, byteHops
	}
	l1, b1 := run()
	l2, b2 := run()
	if l1 != l2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", l1, b1, l2, b2)
	}
}
