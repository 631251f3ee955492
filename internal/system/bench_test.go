package system

import (
	"testing"

	"vsnoop/internal/core"
)

// benchConfig is the Table II machine with no hypervisor activity,
// running app for refs measured references after warmup.
func benchConfig(app string, refs, warmup int) Config {
	c := DefaultConfig()
	c.Workloads = []string{app}
	c.RefsPerVCPU = refs + warmup
	c.WarmupRefs = warmup
	c.NoHypervisor = true
	return c
}

// contentConfig is the content-sharing machine: specjbb VMs whose common
// pages are merged at setup, routed by the friend-VM policy.
func contentConfig() Config {
	c := benchConfig("specjbb", 8000, 2000)
	c.ContentSharing = true
	c.Filter.Content = core.ContentFriendVM
	c.Filter.Policy = core.PolicyCounter
	return c
}

// benchMachine keeps BenchmarkNew's result live.
var benchMachine *Machine

// BenchmarkNew times machine setup alone (system.New): page
// preallocation for every config, plus page merging, COW targets and the
// friend tables for the content config. Run with -benchmem.
func BenchmarkNew(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"pinned", benchConfig("fft", 8000, 2000)},
		{"content", contentConfig()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := New(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchMachine = m
			}
		})
	}
}

// newAllocGate bounds the allocations of one content-config system.New,
// 1.25x the count measured when the memory manager's per-page maps became
// dense tables: a per-page map or per-page allocation coming back at setup
// breaks it.
const newAllocGate = 981 // 785 measured (Go 1.24.0)

func TestNewAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := contentConfig()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("system.New (content): %.0f allocs", avg)
	if avg > newAllocGate {
		t.Fatalf("system.New (content) made %.0f allocations, gate %d", avg, newAllocGate)
	}
}
