package vsnoop

import (
	"fmt"
	"testing"

	"vsnoop/internal/runner"
)

// sweepConfigs covers every handler family the public machine runs: all
// five snoop policies, pinned and migrating; content sharing under each
// content policy; the faulted plan (drop, map and counter corruption, a
// migration storm, invariant checking); and hypervisor activity.
func sweepConfigs() []Config {
	short := func(cfg Config) Config {
		cfg.RefsPerVCPU = 1200
		cfg.WarmupRefs = 200
		cfg.CyclesPerMs = 12000
		cfg.Seed = 2
		return cfg
	}
	var cfgs []Config
	for i, pol := range []Policy{PolicyBroadcast, PolicyBase, PolicyCounter, PolicyCounterThreshold, PolicyCounterFlush} {
		for _, period := range []float64{0, 2.5} {
			cfg := DefaultConfig()
			cfg.Workload = []string{"fft", "ocean"}[i%2]
			cfg.Policy = pol
			cfg.MigrationPeriodMs = period
			cfgs = append(cfgs, short(cfg))
		}
	}
	for _, cp := range []ContentPolicy{ContentBroadcast, ContentMemoryDirect, ContentIntraVM, ContentFriendVM} {
		cfg := DefaultConfig()
		cfg.Workload = "specjbb"
		cfg.Policy = PolicyCounter
		cfg.ContentSharing = true
		cfg.Content = cp
		cfgs = append(cfgs, short(cfg))
	}
	faulted := DefaultConfig()
	faulted.Fault = faultedPlan()
	hv := DefaultConfig()
	hv.Hypervisor = true
	return append(cfgs, short(faulted), short(hv))
}

// TestParallelSweepMatchesSerial drives the vsnoop-sweep harness shape — a
// job list executed through runner.Stream — once with a single worker and
// once with several, and requires the emitted rows to match exactly. This is
// the end-to-end determinism guarantee for parallel sweeps: worker count
// must never change output, only wall-clock time. Under go test -race it is
// also the handler-isolation guard: every handler family runs on several
// goroutines at once, so a handler that writes shared state is a data race.
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfgs := sweepConfigs()
	row := func(cfg Config) string {
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("%s/%s: %v", cfg.Workload, cfg.Policy, err)
			return "error"
		}
		return fmt.Sprintf("%s,%g,%s,%s,%t,%t,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d",
			cfg.Workload, cfg.MigrationPeriodMs, cfg.Policy, cfg.Content,
			cfg.Fault != nil, cfg.Hypervisor,
			res.SnoopsPerTransaction, res.TrafficByteHops,
			res.ExecCycles, res.Relocations, res.Retries, res.Persistent,
			res.FaultsDropped, res.InvariantChecks, len(res.InvariantViolations),
			res.HypervisorMissPct, res.ContentMissPct, res.EventsFired)
	}

	sweep := func(workers int) []string {
		rows := make([]string, 0, len(cfgs))
		runner.Stream(workers, len(cfgs), func(i int) string {
			return row(cfgs[i])
		}, func(_ int, r string) {
			rows = append(rows, r)
		})
		return rows
	}

	serial := sweep(1)
	parallel := sweep(4)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}
