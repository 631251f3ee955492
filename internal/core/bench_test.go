package core

import (
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

func benchFilter(policy Policy) *Filter {
	eng := sim.NewEngine()
	caches := make([]*cache.Cache, 16)
	for i := range caches {
		caches[i] = cache.New(cache.Config{Name: "L2", SizeBytes: 8192, Ways: 8, BlockBytes: 64})
	}
	f := NewFilter(eng, Config{Policy: policy}, 16, caches)
	for vm := mem.VMID(0); vm < 4; vm++ {
		for i := 0; i < 4; i++ {
			f.HandleRelocate(vm, -1, int(vm)*4+i)
		}
	}
	return f
}

func BenchmarkRoutePrivate(b *testing.B) {
	f := benchFilter(PolicyBase)
	info := token.RouteInfo{VM: 1, Page: mem.PagePrivate, Requester: 4, CoreNode: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if popcount(first(f.Route(info))) != 3 {
			b.Fatal("unexpected destination count")
		}
	}
}

func BenchmarkRouteBroadcast(b *testing.B) {
	f := benchFilter(PolicyBroadcast)
	info := token.RouteInfo{VM: 1, Page: mem.PagePrivate, Requester: 4, CoreNode: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if popcount(first(f.Route(info))) != 15 {
			b.Fatal("unexpected destination count")
		}
	}
}

// BenchmarkRouteCounterAug measures the level-1 degradation set: the vCPU
// map OR'd with the residence-counter bits in the reusable scratch words.
func BenchmarkRouteCounterAug(b *testing.B) {
	f := benchFilter(PolicyCounter)
	f.DegradationEnabled = true
	f.SuspectVM(1, 1)
	info := token.RouteInfo{VM: 1, Page: mem.PagePrivate, Requester: 4, CoreNode: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if popcount(first(f.Route(info))) != 3 {
			b.Fatal("unexpected destination count")
		}
	}
}

// BenchmarkMapMembership measures the bit-vector register primitives the
// hot paths lean on (Contains is a single word test, MapSize a popcount).
func BenchmarkMapMembership(b *testing.B) {
	f := benchFilter(PolicyBase)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		vm := mem.VMID(i & 3)
		if f.Contains(vm, int(vm)*4) {
			sink += f.MapSize(vm)
		}
	}
	if sink == 0 {
		b.Fatal("membership probes all missed")
	}
}

// TestHandleRelocateZeroAllocSteadyState gates the vCPU-map update path:
// once the per-VM register files have grown to cover every VM, a relocation
// (map add, departure check, counter-triggered removal) allocates nothing.
func TestHandleRelocateZeroAllocSteadyState(t *testing.T) {
	f := benchFilter(PolicyCounter)
	for i := 0; i < 256; i++ {
		vm := mem.VMID(i & 3)
		f.HandleRelocate(vm, int(vm)*4, 15-int(vm))
		f.HandleRelocate(vm, 15-int(vm), int(vm)*4)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			vm := mem.VMID(i & 3)
			// Bounce between the home core and a far one: every call adds a
			// map entry and the empty benchmark caches make the departed core
			// eligible for immediate counter removal.
			f.HandleRelocate(vm, int(vm)*4, 15-int(vm))
			f.HandleRelocate(vm, 15-int(vm), int(vm)*4)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state HandleRelocate allocates %.2f per 128-call batch, want 0", avg)
	}
}

// TestRouteZeroAllocBroadcast gates Route's no-allocation path: broadcast
// copies the all-cores words into the filter's own route words.
func TestRouteZeroAllocBroadcast(t *testing.T) {
	f := benchFilter(PolicyBroadcast)
	info := token.RouteInfo{VM: 1, Page: mem.PagePrivate, Requester: 4, CoreNode: 4}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if popcount(first(f.Route(info))) != 15 {
				t.Fatal("unexpected destination count")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("broadcast Route allocates %.2f per 64-call batch, want 0", avg)
	}
}

func BenchmarkRelocationChurn(b *testing.B) {
	f := benchFilter(PolicyCounter)
	for i := 0; i < b.N; i++ {
		vm := mem.VMID(i & 3)
		from := int(vm)*4 + (i & 3)
		// Move a vCPU back and forth between its home core and a far one.
		f.HandleRelocate(vm, from, from)
	}
}

// first returns the first of a route's two sets.
func first(a, _ []uint64) []uint64 { return a }
