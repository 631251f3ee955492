// Package exp reproduces every table and figure of the paper's evaluation.
// Each experiment function returns structured rows carrying both the
// measured value and the paper's published value (where the paper gives
// one), so the report generator can print paper-vs-measured side by side.
//
// Two run scales are provided: Quick (CI-sized, minutes) and Full (the
// scale used to generate EXPERIMENTS.md). Runs at either scale preserve
// the paper's qualitative shapes; see EXPERIMENTS.md for the documented
// time/size scaling.
package exp

import (
	"vsnoop/internal/cache"
	"vsnoop/internal/core"
	"vsnoop/internal/runner"
	"vsnoop/internal/system"
)

// Scale selects run sizes.
type Scale struct {
	Name string

	RefsPinned  int // refs/vCPU for ideally-pinned experiments (Table IV, Fig 6)
	RefsMig     int // refs/vCPU for migration sweeps (Figs 7-9)
	RefsContent int // refs/vCPU for content-sharing runs (Table V/VI, Fig 10)
	RefsFig1    int // refs/vCPU for the hypervisor-decomposition runs (Fig 1)

	SchedWorkMS float64 // per-vCPU CPU work in scheduler runs (Fig 3, Table I)

	Warmup    int // cache-warmup refs/vCPU excluded from statistics
	MigWarmup int // warmup for the (smaller-cache) migration runs
}

// Quick is the CI-sized scale.
var Quick = Scale{
	Name:       "quick",
	RefsPinned: 4000, RefsMig: 15000, RefsContent: 5000, RefsFig1: 6000,
	SchedWorkMS: 600,
	Warmup:      6000,
	MigWarmup:   3000,
}

// Full is the report-generation scale.
var Full = Scale{
	Name:       "full",
	RefsPinned: 40000, RefsMig: 30000, RefsContent: 30000, RefsFig1: 30000,
	SchedWorkMS: 3000,
	Warmup:      8000,
	MigWarmup:   4000,
}

// SectionVApps are the ten applications of the Section V evaluation
// (Table III: SPLASH-2, PARSEC subset, SPECjbb).
var SectionVApps = []string{
	"cholesky", "fft", "lu", "ocean", "radix",
	"blackscholes", "canneal", "dedup", "ferret", "specjbb",
}

// ContentApps are the nine applications of Table V / Section VI.
var ContentApps = []string{
	"cholesky", "fft", "lu", "ocean", "radix",
	"blackscholes", "canneal", "ferret", "specjbb",
}

// ParsecApps are the thirteen PARSEC applications of Section III.
var ParsecApps = []string{
	"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
	"fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions",
	"vips", "x264",
}

// Fig1Apps are the fifteen workloads of Figure 1.
var Fig1Apps = append(append([]string{}, ParsecApps...), "oltp", "specweb")

// pinnedCfg is the Table II system with ideally pinned VMs and no
// hypervisor (Virtual-GEMS methodology).
func pinnedCfg(app string, refs, warmup int) system.Config {
	cfg := system.DefaultConfig()
	cfg.Workloads = []string{app}
	cfg.RefsPerVCPU = refs + warmup
	cfg.WarmupRefs = warmup
	cfg.NoHypervisor = true
	return cfg
}

// migCfg is the scaled configuration used for the migration sweeps. The
// caches are shrunk 8x and the cycles-per-millisecond factor is chosen so
// that the ratio of migration period to cache-drain time matches the
// full-size system: a departed VM's blocks drain from a 32 KB L2 in
// roughly 130k cycles (~2 scaled ms), mirroring the paper's sub-10 ms
// removal periods against 5/2.5/0.5/0.1 ms migration (documented in
// EXPERIMENTS.md).
func migCfg(app string, refs, warmup int, periodMs float64, policy core.Policy) system.Config {
	cfg := system.DefaultConfig()
	cfg.Workloads = []string{app}
	cfg.RefsPerVCPU = refs + warmup
	cfg.WarmupRefs = warmup
	cfg.NoHypervisor = true
	cfg.L1 = cache.Config{Name: "L1", SizeBytes: 8 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 2}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10}
	cfg.CyclesPerMs = 60_000
	cfg.MigrationPeriodMs = periodMs
	cfg.Filter.Policy = policy
	return cfg
}

// migRefs scales the per-vCPU stream so long-period runs span enough
// migration epochs (>=10 periods at 5 ms) without making the short-period
// runs needlessly long.
func migRefs(base int, periodMs float64) int {
	switch {
	case periodMs >= 5:
		return 2 * base
	case periodMs >= 2.5:
		return base
	default:
		return base * 2 / 5
	}
}

// runMachine builds and runs one machine; it panics on configuration
// errors (experiment configs are code, not user input).
func runMachine(cfg system.Config) *system.Stats {
	cfg.MaxSteps = MaxSteps
	m, err := system.New(cfg)
	if err != nil {
		panic(err)
	}
	return m.Run()
}

// MaxSteps, when nonzero, bounds every experiment machine's event count
// (vsnoop-report's -max-steps runaway guard; exhausting it panics with a
// sim.StepLimitError rather than silently truncating results).
var MaxSteps uint64

// parallel runs fn(i) for i in [0, n) on a bounded worker pool and returns
// the results in order. Machines are single-threaded and independent, so
// experiment sweeps parallelize perfectly; see internal/runner for the pool.
func parallel[T any](n int, fn func(i int) T) []T {
	return runner.Map(0, n, fn)
}
