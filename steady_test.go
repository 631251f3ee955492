package vsnoop

import (
	"runtime"
	"testing"
)

// faultedPlan is the fault plan of the steady-state and parallel-sweep
// tests: 10% message loss plus one scheduled event of each kind, all early
// enough to land inside the shortest run.
func faultedPlan() *FaultPlan {
	return &FaultPlan{
		Seed:    5,
		DropPct: 10,
		Events: []FaultEvent{
			{AtCycle: 20_000, Kind: FaultCorruptMap, VM: 1, Core: 5},
			{AtCycle: 40_000, Kind: FaultCorruptCounter, VM: 2, Core: 9},
			{AtCycle: 60_000, Kind: FaultMigrationStorm, Count: 4},
		},
	}
}

// steadyConfigs are the machines TestSteadyStateAllocs holds to the
// steady-state bound: the pinned hot path, constant relocation, content
// sharing, and a faulted run with the invariant checker on.
func steadyConfigs() map[string]Config {
	pinned := DefaultConfig()
	pinned.WarmupRefs = 0

	storm := pinned
	storm.Policy = PolicyCounter
	storm.MigrationPeriodMs = 0.1

	content := pinned
	content.Workload = "specjbb"
	content.ContentSharing = true
	content.Content = ContentFriendVM

	faulted := pinned
	faulted.Fault = faultedPlan()

	return map[string]Config{"pinned": pinned, "storm": storm, "content": content, "faulted": faulted}
}

// runMallocs returns the heap allocations one Run of cfg makes, the fewest
// of two runs so a stray runtime allocation does not count.
func runMallocs(t *testing.T, cfg Config) uint64 {
	t.Helper()
	best := ^uint64(0)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestSteadyStateAllocs is the run-time guard of the hot path: a run four
// times as long may allocate at most one more object per 1,000 extra
// references. Setup allocates in proportion to the machine, not the run,
// so any allocation that recurs while the machine runs — in any handler,
// in any branch the run takes, in any form (make, new, append growth,
// boxing, closures, formatting) — shows up as growth here.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const refs = 4000
	cfgs := steadyConfigs()
	for _, name := range []string{"pinned", "storm", "content", "faulted"} {
		t.Run(name, func(t *testing.T) {
			cfg := cfgs[name]
			cfg.RefsPerVCPU = refs
			short := runMallocs(t, cfg)
			cfg.RefsPerVCPU = 4 * refs
			long := runMallocs(t, cfg)
			extraRefs := uint64(3 * refs * cfg.VMs * cfg.VCPUsPerVM)
			growth := int64(long) - int64(short)
			t.Logf("%d mallocs at %d refs/vCPU, %d at %d: %+d over %d extra refs",
				short, refs, long, 4*refs, growth, extraRefs)
			if growth > int64(extraRefs/1000) {
				t.Errorf("%+d mallocs over %d extra refs, bound %d: something allocates while the machine runs",
					growth, extraRefs, extraRefs/1000)
			}
		})
	}
}
