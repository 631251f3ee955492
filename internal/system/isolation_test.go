package system

import (
	"testing"

	"vsnoop/internal/runner"
)

// TestConcurrentDirectoryAndRegionScout runs directory and RegionScout
// machines, pinned and migrating, on several goroutines at once through
// runner.Map, and requires each to produce the statistics it produces
// alone. The public API never builds these two protocol families, so the
// root package's parallel sweep does not reach them; under go test -race
// this is their handler-isolation guard: a directory or RegionScout
// handler that writes state shared between machines is a data race here.
func TestConcurrentDirectoryAndRegionScout(t *testing.T) {
	var cfgs []Config
	for _, period := range []float64{0, 2.5} {
		for _, dir := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.RefsPerVCPU, cfg.WarmupRefs = 1200, 200
			cfg.CyclesPerMs = 12000
			cfg.MigrationPeriodMs = period
			cfg.Directory = dir
			cfg.UseRegionScout = !dir
			cfgs = append(cfgs, cfg)
		}
	}
	digest := func(cfg Config) string {
		m, err := New(cfg)
		if err != nil {
			t.Error(err)
			return "error"
		}
		return statsDigest(m.Run())
	}
	alone := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		alone[i] = digest(cfg)
	}
	together := runner.Map(4, len(cfgs), func(i int) string { return digest(cfgs[i]) })
	for i := range cfgs {
		if together[i] != alone[i] {
			t.Errorf("config %d (directory=%t, period %g): concurrent run differs from a run alone",
				i, cfgs[i].Directory, cfgs[i].MigrationPeriodMs)
		}
	}
}
