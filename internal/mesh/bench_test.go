package mesh

import (
	"testing"

	"vsnoop/internal/sim"
)

func benchNet(contention bool) (*sim.Engine, *Network, []NodeID) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Contention = contention
	net := New(eng, cfg)
	ids := make([]NodeID, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			ids[y*4+x] = net.Attach(x, y, func(interface{}) {})
		}
	}
	return eng, net, ids
}

func BenchmarkSendNoContention(b *testing.B) {
	eng, net, ids := benchNet(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 8, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkSendContention(b *testing.B) {
	eng, net, ids := benchNet(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}

// TestSendZeroAllocSteadyState gates the send path's allocation behaviour:
// with the dense link tables and the prebound delivery handler, routing a
// contended message end to end (XY walk, link reservation, delivery event)
// must not allocate once the event queue has reached steady state.
func TestSendZeroAllocSteadyState(t *testing.T) {
	eng, net, ids := benchNet(true)
	for i := 0; i < 1024; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state Send allocates %.2f per 64-message batch, want 0", avg)
	}
}

// TestPartitionedSendZeroAllocSteadyState gates the send path of a network
// cut into two domains: the per-domain traffic-slot accounting and the
// cross-domain zero-load delivery must allocate nothing at steady state,
// same as the one-domain network TestSendZeroAllocSteadyState covers.
func TestPartitionedSendZeroAllocSteadyState(t *testing.T) {
	eng, net, ids := benchNet(true)
	nodeDom := make([]int32, len(ids))
	for i, id := range ids {
		if x, _ := net.Coords(id); x >= 2 {
			nodeDom[i] = 1
		}
	}
	net.Partition(nodeDom, 2)
	for i := 0; i < 1024; i++ {
		net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			// (i+7)&15 crosses the column-2 domain boundary for half the
			// pairs, so both the intra-domain contention walk and the
			// cross-domain fast path are exercised.
			net.Send(ids[i&15], ids[(i+7)&15], 72, nil)
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state partitioned Send allocates %.2f per 64-message batch, want 0", avg)
	}
}

// TestPartitionedMulticastZeroAlloc gates Multicast the way
// TestPartitionedSendZeroAllocSteadyState gates Send: a partitioned
// broadcast, with intra-domain contention walks, cross-domain deliveries
// and a keep mask that keeps half the deliveries, listing the contended
// ones in a reused buffer and deriving the others, allocates nothing at
// steady state.
func TestPartitionedMulticastZeroAlloc(t *testing.T) {
	eng, net, ids := benchNet(true)
	nodeDom := make([]int32, len(ids))
	for i, id := range ids {
		if x, _ := net.Coords(id); x >= 2 {
			nodeDom[i] = 1
		}
	}
	net.Partition(nodeDom, 2)
	all := Words(ids...)
	k := Kept{Keep: 0x5555, Derive: true, List: make([]Delivery, 0, len(ids))}
	for i := 0; i < 64; i++ {
		net.Multicast(ids[i&15], all, nil, -1, 8, nil, &k)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			net.Multicast(ids[i&15], all, nil, -1, 8, nil, &k)
			if k.Count() != 8 || k.Derived == 0 || len(k.List) == 0 {
				t.Fatalf("%d deliveries kept, %d of them listed; want 8, some listed and some derived", k.Count(), len(k.List))
			}
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state partitioned Multicast allocates %.2f per 8-multicast batch, want 0", avg)
	}
}

func BenchmarkBroadcast(b *testing.B) {
	eng, net, ids := benchNet(true)
	dests := ids[1:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dests {
			net.Send(ids[0], d, 8, nil)
		}
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkMulticast is BenchmarkBroadcast through one Multicast call.
func BenchmarkMulticast(b *testing.B) {
	eng, net, ids := benchNet(true)
	dests := Words(ids[1:]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Multicast(ids[0], dests, nil, -1, 8, nil, nil)
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}
