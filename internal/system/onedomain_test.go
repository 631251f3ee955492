package system

import (
	"testing"

	"vsnoop/internal/fault"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// TestOneDomainPlans runs machines without quadrant placement, which are
// one domain — one core on a 1x1 mesh, and one VM of two vCPUs on a 2x1
// mesh — through the same machine every other plan uses: plain, migrating (filter replicas and the
// cross-domain protocols at a zero horizon), and under a fault plan with
// drops, duplicates and map/counter corruption events. Each run must
// terminate with a clean invariant ledger and repeat exactly.
func TestOneDomainPlans(t *testing.T) {
	machine := func(cores, vms, vcpus int) Config {
		cfg := DefaultConfig()
		cfg.Cores, cfg.VMs, cfg.VCPUsPerVM = cores, vms, vcpus
		cfg.Mesh.Width, cfg.Mesh.Height = cores, 1
		cfg.P = token.DefaultParams(cores)
		cfg.RefsPerVCPU, cfg.WarmupRefs = 2000, 200
		cfg.Checks = true
		return cfg
	}
	plain := func(c *Config) {}
	migrating := func(c *Config) { c.MigrationPeriodMs, c.CyclesPerMs = 0.05, 100_000 }
	faulted := func(c *Config) {
		c.Fault = &fault.Plan{Seed: 7, DropPct: 2, DupPct: 1, Events: []fault.Event{
			{At: 3000, Kind: fault.EvCorruptMap, VM: 0, Core: 0},
			{At: 6000, Kind: fault.EvCorruptCounter, VM: 0, Core: c.Cores - 1}, // Count 0: delta -1
		}}
	}
	for _, mc := range []struct {
		name              string
		cores, vms, vcpus int
	}{{"1x1", 1, 1, 1}, {"2x1", 2, 1, 2}} {
		for _, v := range []struct {
			name string
			set  func(*Config)
		}{{"plain", plain}, {"migrating", migrating}, {"faulted", faulted}} {
			cfg := machine(mc.cores, mc.vms, mc.vcpus)
			v.set(&cfg)
			name := mc.name + "/" + v.name
			t.Run(name, func(t *testing.T) {
				a := runOneDomain(t, cfg)
				b := runOneDomain(t, cfg)
				statsEqual(t, name, a, b)
				if a.EventsFired != b.EventsFired {
					t.Errorf("events fired %d then %d", a.EventsFired, b.EventsFired)
				}
				if a.InvariantChecks == 0 || len(a.InvariantViolations) != 0 {
					t.Errorf("%d invariant checks, violations %v", a.InvariantChecks, a.InvariantViolations)
				}
				if a.Transactions == 0 {
					t.Error("no coherence transactions")
				}
				switch {
				case cfg.Fault != nil:
					if a.MapCorruptions != 1 || a.CounterCorruptions != 1 || a.FaultsDropped == 0 {
						t.Errorf("%d map and %d counter corruptions, %d drops; want 1, 1, some",
							a.MapCorruptions, a.CounterCorruptions, a.FaultsDropped)
					}
				case cfg.MigrationPeriodMs > 0 && mc.cores > 1:
					if a.Relocations == 0 {
						t.Error("no relocations")
					}
				}
			})
		}
	}
}

// runOneDomain builds and runs cfg. A one-VM machine has no cross-VM pair
// for the shuffle tick, so a migrating run with two cores also swaps its
// two vCPUs itself every 2,000 cycles, from domain 0 as the tick would:
// each swap is a depart/arrive/ack transaction at a zero horizon.
func runOneDomain(t *testing.T, cfg Config) *Stats {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MigrationPeriodMs > 0 && cfg.Cores > 1 {
		var swap sim.HandlerFn
		swap = func(interface{}, uint64) {
			if m.retired >= len(m.vcpus) {
				return
			}
			if !m.inflight[0] && !m.inflight[1] {
				m.Mapper.Swap(0, 1)
			}
			m.Eng.ScheduleFn(2000, swap, nil, 0)
		}
		m.Eng.ScheduleFn(2000, swap, nil, 0)
	}
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	// A corrupted map may stay short of the cores that hold the VM's data
	// until a broadcast-level escalation rebuilds it: under faults only
	// the protocol invariants the checker sweeps are promised.
	if cfg.Fault == nil {
		if err := m.CheckFilterInvariant(); err != nil {
			t.Fatalf("filter invariant violated: %v", err)
		}
	}
	return st
}
