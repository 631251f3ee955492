package system

import (
	"fmt"
	"reflect"
	"testing"

	"vsnoop/internal/core"
	"vsnoop/internal/fault"
)

// statsEqual compares every exported field of two statistics records,
// treating the latency sample and removal-period CDF through their summary
// accessors (their internals hold equivalent but unexported state). Sync is
// skipped: it reports execution mechanics (windows, barriers, elisions) that
// depend on the shard count and synchronization mode by design, while every
// simulation statistic must stay bit-identical across them.
func statsEqual(t *testing.T, label string, a, b *Stats) {
	t.Helper()
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	tp := va.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if f.PkgPath != "" || f.Name == "RemovalPeriods" || f.Name == "MissLatency" ||
			f.Name == "Sync" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("%s: field %s differs: %v vs %v",
				label, f.Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	if a.MissLatency.N() != b.MissLatency.N() || a.MissLatency.Mean() != b.MissLatency.Mean() {
		t.Errorf("%s: miss latency differs: %d/%v vs %d/%v", label,
			a.MissLatency.N(), a.MissLatency.Mean(), b.MissLatency.N(), b.MissLatency.Mean())
	}
	an, bn := 0, 0
	if a.RemovalPeriods != nil {
		an = a.RemovalPeriods.N()
	}
	if b.RemovalPeriods != nil {
		bn = b.RemovalPeriods.N()
	}
	if an != bn {
		t.Errorf("%s: removal periods differ: %d vs %d", label, an, bn)
	}
}

// TestShardCountBitIdentical is the core guarantee of the parallel engine:
// for every snoop policy x content policy, running with 1, 2, or 4 shards
// produces statistics identical to the serial run. The semantic event order
// is fixed by the configuration alone; the shard count only picks how many
// goroutines execute it.
func TestShardCountBitIdentical(t *testing.T) {
	policies := []core.Policy{
		core.PolicyBroadcast, core.PolicyBase, core.PolicyCounter,
		core.PolicyCounterThreshold, core.PolicyCounterFlush,
	}
	contents := []core.ContentPolicy{
		core.ContentBroadcast, core.ContentMemoryDirect,
		core.ContentIntraVM, core.ContentFriendVM,
	}
	for _, pol := range policies {
		for _, con := range contents {
			pol, con := pol, con
			t.Run(fmt.Sprintf("%v_%v", pol, con), func(t *testing.T) {
				run := func(shards int, noElision bool) *Stats {
					cfg := DefaultConfig()
					cfg.RefsPerVCPU = 1200
					cfg.WarmupRefs = 200
					cfg.Filter.Policy = pol
					cfg.Filter.Content = con
					cfg.Shards = shards
					cfg.NoElision = noElision
					return runCfg(t, cfg)
				}
				serial := run(0, false)
				for _, k := range []int{1, 2, 4} {
					// Elision on (K>1: adaptive free-running) and off
					// (fully-barriered windowed protocol) must both match
					// the serial run exactly; K=1 has a single mode.
					statsEqual(t, fmt.Sprintf("shards=%d", k), serial, run(k, false))
					if k > 1 {
						statsEqual(t, fmt.Sprintf("shards=%d/no-elision", k), serial, run(k, true))
					}
				}
			})
		}
	}
}

// TestShardedFaultBitIdentical extends the guarantee to probabilistic fault
// injection: per-node fault streams make drops, duplicates, and delays a
// function of (seed, node) rather than global arrival order, so a moderate
// fault plan stays bit-identical across shard counts too.
func TestShardedFaultBitIdentical(t *testing.T) {
	run := func(shards int, noElision bool) *Stats {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 1500
		cfg.WarmupRefs = 300
		cfg.Filter.Policy = core.PolicyCounter
		cfg.NoHypervisor = true
		cfg.Fault = fault.Moderate(7)
		cfg.Shards = shards
		cfg.NoElision = noElision
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.RunChecked()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serial := run(0, false)
	if serial.FaultsDropped == 0 && serial.FaultsBounced == 0 && serial.FaultsDelayed == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if serial.InvariantChecks == 0 {
		t.Fatal("checker never ran")
	}
	// Checked runs use the windowed protocol; with elision the barrier-A
	// leader folds quiet windows, without it every window pays both
	// barriers. InvariantChecks is compared too (statsEqual), so the
	// window-boundary sequence itself must be identical in all variants.
	for _, k := range []int{1, 2, 4} {
		statsEqual(t, fmt.Sprintf("shards=%d", k), serial, run(k, false))
		if k > 1 {
			statsEqual(t, fmt.Sprintf("shards=%d/no-elision", k), serial, run(k, true))
		}
	}
}

// TestShardedHypervisorBitIdentical covers the hypervisor/dom0 activity
// paths (shared hv pages are cacheable across quadrants; only their state
// ownership is partitioned).
func TestShardedHypervisorBitIdentical(t *testing.T) {
	run := func(shards int) *Stats {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 1200
		cfg.WarmupRefs = 200
		cfg.NoHypervisor = false
		cfg.Shards = shards
		return runCfg(t, cfg)
	}
	serial := run(0)
	for _, k := range []int{2, 4} {
		statsEqual(t, fmt.Sprintf("shards=%d", k), serial, run(k))
	}
}

// TestMigrationBitIdentical pins the tentpole guarantee for the class the
// old quadrant invariant disqualified outright: runtime vCPU migration. The
// shuffler runs as a machine-owned dom0 tick and every relocation is an
// ordered depart/arrive/ack transaction between domains, so the partitioned
// run must stay bit-identical to the single-shard run for every K.
func TestMigrationBitIdentical(t *testing.T) {
	run := func(shards int, noElision bool) *Stats {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 1000
		cfg.MigrationPeriodMs = 2
		cfg.CyclesPerMs = 12000
		cfg.Shards = shards
		cfg.NoElision = noElision
		return runCfg(t, cfg)
	}
	serial := run(0, false)
	if serial.Relocations == 0 {
		t.Fatal("migration config relocated nothing")
	}
	if serial.MapSyncs == 0 {
		t.Fatal("relocations synchronized no VM maps")
	}
	for _, k := range []int{1, 2, 4} {
		statsEqual(t, fmt.Sprintf("shards=%d", k), serial, run(k, false))
		if k > 1 {
			statsEqual(t, fmt.Sprintf("shards=%d/no-elision", k), serial, run(k, true))
		}
	}
	// A config the planner cannot cut (single core, or forced serial) still
	// reports a single domain and runs the legacy engine for any Shards.
	if cfg := (Config{}); cfg.Shardable() {
		t.Fatal("zero config must not be shardable")
	}
	forced := DefaultConfig()
	forced.ForceSerial = true
	if forced.Shardable() {
		t.Fatal("ForceSerial config must not be shardable")
	}
}

// TestAdaptiveZeroBarrierWaits is the synchronization-telemetry regression
// test: when nothing observes window boundaries, K>1 runs free-running
// adaptive synchronization and must fire ZERO barrier waits for the whole
// run — execution stretches with no cross-domain traffic never synchronize
// at a barrier at all. The fully-barriered fallback must, by contrast,
// report waits and no elisions.
func TestAdaptiveZeroBarrierWaits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 800
	cfg.Shards = 4
	st := runCfg(t, cfg)
	if st.Sync.BarrierWaits != 0 {
		t.Errorf("adaptive run fired %d barrier waits, want 0", st.Sync.BarrierWaits)
	}
	if st.Sync.Windows == 0 || st.Sync.ElidedBarriers == 0 {
		t.Errorf("adaptive telemetry empty: %+v", st.Sync)
	}
	if st.Sync.MeanWindowWidth() <= 0 {
		t.Errorf("mean window width %v, want > 0", st.Sync.MeanWindowWidth())
	}

	cfg.NoElision = true
	st = runCfg(t, cfg)
	if st.Sync.BarrierWaits == 0 {
		t.Errorf("fully-barriered run reported zero barrier waits: %+v", st.Sync)
	}
	if st.Sync.ElidedBarriers != 0 {
		t.Errorf("NoElision run elided %d barriers, want 0", st.Sync.ElidedBarriers)
	}

	// Windowed mode with elision enabled (an OnWindow observer forces the
	// windowed protocol): quiet windows skip barrier B, so the wait count
	// must come in strictly below the two-barriers-per-window worst case.
	cfg.NoElision = false
	cfg.Checks = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err = m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sync.ElidedBarriers == 0 {
		t.Errorf("windowed run with elision skipped no barriers: %+v", st.Sync)
	}
	worst := 2 * 4 * st.Sync.Windows
	if st.Sync.BarrierWaits >= worst {
		t.Errorf("windowed elision saved nothing: %d waits for %d windows",
			st.Sync.BarrierWaits, st.Sync.Windows)
	}
}

// TestAdaptiveRaceSoak soaks the free-running adaptive protocol under
// -race with heavy cross-domain traffic that needs no synchronized mode:
// hypervisor/dom0 activity layered over counter-threshold filtering.
// Migration (the replicated-filter synchronized mode) gets its own soak in
// TestMigrationStormRaceSoak below.
func TestAdaptiveRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 4000
	cfg.WarmupRefs = 500
	cfg.Filter.Policy = core.PolicyCounterThreshold
	cfg.NoHypervisor = false
	cfg.Shards = 4
	serial := runCfg(t, func() Config { c := cfg; c.Shards = 0; return c }())
	st := runCfg(t, cfg)
	statsEqual(t, "adaptive-soak", serial, st)
	if st.Sync.BarrierWaits != 0 {
		t.Errorf("adaptive soak fired %d barrier waits, want 0", st.Sync.BarrierWaits)
	}
	if st.Transactions == 0 || st.EventsFired == 0 {
		t.Fatalf("no activity: %d transactions, %d events", st.Transactions, st.EventsFired)
	}
}

// TestMigrationStormRaceSoak soaks vCPU relocation storms (the cross-VM
// worst case) under -race, now on the partitioned engine: periodic shuffles
// plus storm events drive the depart/arrive/ack transaction and the filter
// replica deltas continuously, with invariant checks forcing the windowed
// protocol. The 4-shard run must match the single-shard run exactly.
func TestMigrationStormRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	run := func(shards int) *Stats {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 3000
		cfg.WarmupRefs = 400
		cfg.Filter.Policy = core.PolicyCounter
		cfg.MigrationPeriodMs = 2
		cfg.CyclesPerMs = 12000
		cfg.Fault = fault.Moderate(13)
		cfg.Fault.Events = append(cfg.Fault.Events,
			fault.Event{At: 20000, Kind: fault.EvMigrationStorm, Count: 6},
			fault.Event{At: 60000, Kind: fault.EvMigrationStorm, Count: 6},
		)
		cfg.Shards = shards
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.RunChecked()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run(4)
	if len(st.InvariantViolations) != 0 {
		t.Fatalf("invariants violated: %v", st.InvariantViolations)
	}
	if st.StormRelocations == 0 {
		t.Fatal("storms relocated nothing")
	}
	statsEqual(t, "storm-soak", run(0), st)
}

// TestShardRaceSoak is the data-race soak: a 4-shard run under the moderate
// fault plan with invariant checks, sized to spend real time in the barrier
// protocol. Its value is under -race (the CI soak job); without -race it is
// a cheap smoke test.
func TestShardRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 4000
	cfg.WarmupRefs = 500
	cfg.Filter.Policy = core.PolicyCounterThreshold
	cfg.NoHypervisor = true
	cfg.Fault = fault.Moderate(11)
	cfg.Shards = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.InvariantViolations) != 0 {
		t.Fatalf("invariants violated: %v", st.InvariantViolations)
	}
	if st.Transactions == 0 || st.EventsFired == 0 {
		t.Fatalf("no activity: %d transactions, %d events", st.Transactions, st.EventsFired)
	}
}

// TestLocationTables pins the own/fwd location rows the sharded event chase
// reads: each vCPU is owned by exactly one domain, that domain is the one
// its dom pointer names, and the owner's fwd entry points at itself —
// after construction and again after a migrating run's depart/arrive
// hand-offs.
func TestLocationTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 1000
	cfg.MigrationPeriodMs = 0.1
	cfg.Filter.Policy = core.PolicyCounter
	cfg.Shards = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.own == nil || m.nv != len(m.vcpus) {
		t.Fatalf("location tables not built: own=%v nv=%d", m.own != nil, m.nv)
	}
	check := func(when string) {
		t.Helper()
		for i, v := range m.vcpus {
			for _, d := range m.doms {
				row := int(d.idx) * m.nv
				if m.own[row+i] != (d == v.dom) {
					t.Errorf("%s: vCPU %d in dom %d, but dom %d own = %v", when, i, v.dom.idx, d.idx, m.own[row+i])
				}
				if d == v.dom && m.fwd[row+i] != d.idx {
					t.Errorf("%s: dom %d owns vCPU %d but fwd points to %d", when, d.idx, i, m.fwd[row+i])
				}
			}
		}
	}
	check("after New")
	for _, d := range m.doms {
		n := 0
		for i := 0; i < m.nv; i++ {
			if m.own[int(d.idx)*m.nv+i] {
				n++
			}
		}
		if n != d.nvcpus {
			t.Errorf("dom %d owns %d vCPUs, nvcpus = %d", d.idx, n, d.nvcpus)
		}
	}
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocations == 0 {
		t.Fatal("migration run relocated nothing")
	}
	check("after Run")
}
