package hv

import (
	"testing"
	"testing/quick"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

func TestMapperPlaceAndLookup(t *testing.T) {
	m := NewMapper(4)
	v := VCPU{VM: 1, Idx: 0}
	m.Place(v, 2)
	if m.CoreOf(v) != 2 {
		t.Fatalf("CoreOf = %d", m.CoreOf(v))
	}
	if got := m.On(2); got != v {
		t.Fatalf("On(2) = %v", got)
	}
	if vm, ok := m.VMOn(2); !ok || vm != 1 {
		t.Fatalf("VMOn = %d,%v", vm, ok)
	}
	if _, ok := m.VMOn(0); ok {
		t.Fatal("idle core reported a VM")
	}
}

func TestMapperRelocationCallback(t *testing.T) {
	m := NewMapper(4)
	var events [][2]int
	m.OnRelocate = func(v VCPU, from, to int) { events = append(events, [2]int{from, to}) }
	v := VCPU{VM: 1, Idx: 0}
	m.Place(v, 0) // first placement: from = -1
	m.Place(v, 3) // relocation
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0] != [2]int{-1, 0} || events[1] != [2]int{0, 3} {
		t.Fatalf("events = %v", events)
	}
	if m.Relocations != 1 {
		t.Fatalf("relocations = %d, want 1 (first placement excluded)", m.Relocations)
	}
}

func TestMapperSwap(t *testing.T) {
	m := NewMapper(4)
	a := VCPU{VM: 1, Idx: 0}
	b := VCPU{VM: 2, Idx: 0}
	m.Place(a, 0)
	m.Place(b, 1)
	m.Swap(0, 1)
	if m.CoreOf(a) != 1 || m.CoreOf(b) != 0 {
		t.Fatal("swap did not exchange cores")
	}
	if m.Relocations != 2 {
		t.Fatalf("relocations = %d, want 2", m.Relocations)
	}
	// Swap with an idle core moves one vCPU.
	m.Swap(0, 3)
	if m.CoreOf(b) != 3 {
		t.Fatal("swap with idle core failed")
	}
	if m.On(0) != NoVCPU {
		t.Fatal("old core not idled")
	}
}

func TestMapperRunningCores(t *testing.T) {
	m := NewMapper(8)
	for i := 0; i < 4; i++ {
		m.Place(VCPU{VM: 5, Idx: i}, 7-i)
	}
	got := m.RunningCores(5)
	want := []int{4, 5, 6, 7}
	if len(got) != 4 {
		t.Fatalf("cores = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cores = %v, want %v (sorted)", got, want)
		}
	}
}

func TestMapperDoubleOccupancyPanics(t *testing.T) {
	m := NewMapper(2)
	m.Place(VCPU{VM: 1, Idx: 0}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("placing a second vCPU on a busy core did not panic")
		}
	}()
	m.Place(VCPU{VM: 2, Idx: 0}, 0)
}

func TestMapperOccupancyInvariantProperty(t *testing.T) {
	// Under random placements and swaps, every vCPU occupies exactly one
	// core and every core holds at most one vCPU.
	err := quick.Check(func(seed uint64) bool {
		r := sim.NewRand(seed)
		m := NewMapper(8)
		for vm := 0; vm < 2; vm++ {
			for i := 0; i < 4; i++ {
				m.Place(VCPU{VM: mem.VMID(vm), Idx: i}, vm*4+i)
			}
		}
		for op := 0; op < 200; op++ {
			m.Swap(r.Intn(8), r.Intn(8))
		}
		seen := map[VCPU]int{}
		for c := 0; c < 8; c++ {
			v := m.On(c)
			if v == NoVCPU {
				continue
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = c
			if m.CoreOf(v) != c {
				return false
			}
		}
		return len(seen) == 8
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// --- credit scheduler ---

func specs(n int, s TaskSpec) []TaskSpec {
	out := make([]TaskSpec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func TestSchedulerCompletesAllWork(t *testing.T) {
	cfg := DefaultSchedConfig(2, false)
	s := NewCreditScheduler(cfg, specs(2, TaskSpec{WorkMS: 500, BurstMeanMS: 20, BlockMeanMS: 2}))
	res := s.Run(100_000)
	if res.MakespanMS >= 100_000 {
		t.Fatal("scheduler did not finish")
	}
	// 8 vCPUs with 500ms each on 8 cores: makespan >= 500ms.
	if res.MakespanMS < 500 {
		t.Fatalf("makespan %v < serial bound", res.MakespanMS)
	}
}

func TestUndercommittedPinningWins(t *testing.T) {
	// 2 VMs x 4 vCPUs on 8 cores: pinning avoids cold-cache penalties, so
	// pinned makespan <= migrating makespan (Figure 3a).
	spec := TaskSpec{WorkMS: 2000, BurstMeanMS: 15, BlockMeanMS: 1.5}
	pin := NewCreditScheduler(DefaultSchedConfig(2, true), specs(2, spec)).Run(1e6)
	mig := NewCreditScheduler(DefaultSchedConfig(2, false), specs(2, spec)).Run(1e6)
	if pin.MakespanMS > mig.MakespanMS*1.02 {
		t.Fatalf("undercommitted: pinned %.0f worse than migrating %.0f", pin.MakespanMS, mig.MakespanMS)
	}
}

func TestOvercommittedMigrationWins(t *testing.T) {
	// 4 VMs x 4 vCPUs on 8 cores with blocking: work stealing keeps cores
	// busy, pinning strands work (Figure 3b).
	spec := TaskSpec{WorkMS: 2000, BurstMeanMS: 10, BlockMeanMS: 6}
	pin := NewCreditScheduler(DefaultSchedConfig(4, true), specs(4, spec)).Run(1e6)
	mig := NewCreditScheduler(DefaultSchedConfig(4, false), specs(4, spec)).Run(1e6)
	if mig.MakespanMS >= pin.MakespanMS {
		t.Fatalf("overcommitted: migrating %.0f not faster than pinned %.0f", mig.MakespanMS, pin.MakespanMS)
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	spec := TaskSpec{WorkMS: 1000, BurstMeanMS: 5, BlockMeanMS: 2}
	res := NewCreditScheduler(DefaultSchedConfig(2, true), specs(2, spec)).Run(1e6)
	if res.Relocations != 0 {
		t.Fatalf("pinned run migrated %d times", res.Relocations)
	}
}

func TestOvercommitMigratesMoreThanUndercommit(t *testing.T) {
	// Table I: overcommitted relocation periods are much shorter.
	spec := TaskSpec{WorkMS: 3000, BurstMeanMS: 12, BlockMeanMS: 2}
	under := NewCreditScheduler(DefaultSchedConfig(2, false), specs(2, spec)).Run(1e6)
	over := NewCreditScheduler(DefaultSchedConfig(4, false), specs(4, spec)).Run(1e6)
	if under.Relocations == 0 || over.Relocations == 0 {
		t.Fatalf("expected migrations in both: under=%d over=%d", under.Relocations, over.Relocations)
	}
	if over.RelocationPeriodMS >= under.RelocationPeriodMS {
		t.Fatalf("overcommitted period %.1f not shorter than undercommitted %.1f",
			over.RelocationPeriodMS, under.RelocationPeriodMS)
	}
}

func TestComputeBoundBlocksRarely(t *testing.T) {
	// A blackscholes-like VM (long bursts) relocates far less often than a
	// bodytrack-like VM (short bursts).
	compute := TaskSpec{WorkMS: 3000, BurstMeanMS: 500, BlockMeanMS: 1}
	blocky := TaskSpec{WorkMS: 3000, BurstMeanMS: 8, BlockMeanMS: 1}
	a := NewCreditScheduler(DefaultSchedConfig(2, false), specs(2, compute)).Run(1e6)
	b := NewCreditScheduler(DefaultSchedConfig(2, false), specs(2, blocky)).Run(1e6)
	if a.RelocationPeriodMS <= b.RelocationPeriodMS {
		t.Fatalf("compute-bound period %.1f not longer than blocky %.1f",
			a.RelocationPeriodMS, b.RelocationPeriodMS)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	spec := TaskSpec{WorkMS: 800, BurstMeanMS: 10, BlockMeanMS: 3}
	r1 := NewCreditScheduler(DefaultSchedConfig(4, false), specs(4, spec)).Run(1e6)
	r2 := NewCreditScheduler(DefaultSchedConfig(4, false), specs(4, spec)).Run(1e6)
	if r1 != r2 {
		t.Fatalf("nondeterministic scheduler: %+v vs %+v", r1, r2)
	}
}

func TestSchedulerUtilizationBounds(t *testing.T) {
	spec := TaskSpec{WorkMS: 500, BurstMeanMS: 10, BlockMeanMS: 1}
	res := NewCreditScheduler(DefaultSchedConfig(2, false), specs(2, spec)).Run(1e6)
	if res.BusyFraction <= 0 || res.BusyFraction > 1 {
		t.Fatalf("busy fraction = %v", res.BusyFraction)
	}
}

func TestSubsetSchedulingConfinesVMs(t *testing.T) {
	cfg := DefaultSchedConfig(4, false)
	cfg.SubsetSize = 4
	spec := TaskSpec{WorkMS: 500, BurstMeanMS: 10, BlockMeanMS: 3, SerialFrac: 0.3}
	s := NewCreditScheduler(cfg, specs(4, spec))
	// Track placements as they happen.
	res := s.Run(1e6)
	if res.MakespanMS >= 1e6 {
		t.Fatal("subset run did not finish")
	}
	// Verify final placement history via allowed(): every vCPU's lastCore
	// must be inside its subset.
	for _, v := range s.vcpus {
		if v.lastCore == -1 {
			continue
		}
		if !s.allowed(v, v.lastCore) {
			t.Fatalf("vCPU %v ended on core %d outside its subset", v.id, v.lastCore)
		}
	}
}

func TestSubsetRelocatesLessAcrossThanFull(t *testing.T) {
	spec := TaskSpec{WorkMS: 1000, BurstMeanMS: 10, BlockMeanMS: 3, SerialFrac: 0.3}
	full := NewCreditScheduler(DefaultSchedConfig(4, false), specs(4, spec)).Run(1e6)
	sub := DefaultSchedConfig(4, false)
	sub.SubsetSize = 4
	subRes := NewCreditScheduler(sub, specs(4, spec)).Run(1e6)
	// Subset scheduling still migrates (within the subset), and must not
	// collapse throughput relative to full migration.
	if subRes.MakespanMS > full.MakespanMS*1.6 {
		t.Fatalf("subset makespan %.0f vs full %.0f: too large a penalty",
			subRes.MakespanMS, full.MakespanMS)
	}
	if subRes.Relocations == 0 {
		t.Fatal("subset scheduling should still migrate within subsets")
	}
}
