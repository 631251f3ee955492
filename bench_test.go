// Macro-benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs one experiment end-to-end (heavy: a full
// simulation sweep per iteration — Go's benchtime logic keeps N at 1) and
// reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced results alongside time/allocation costs. The
// corresponding paper values are recorded in EXPERIMENTS.md.
//
// Micro-benchmarks for the substrate primitives (cache, mesh, protocol,
// filter) live next to their packages.
package vsnoop

import (
	"testing"

	"vsnoop/internal/exp"
)

// benchScale trims the experiment scale so the full -bench=. suite stays
// tractable on one core while preserving every shape.
var benchScale = exp.Scale{
	Name:       "bench",
	RefsPinned: 3000, RefsMig: 6000, RefsContent: 3500, RefsFig1: 4000,
	SchedWorkMS: 600,
	Warmup:      5000,
	MigWarmup:   2000,
}

// benchApps is the reduced workload set used by the heaviest sweeps.
var benchApps = []string{"fft", "ocean", "canneal", "specjbb"}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figure1(benchScale)
		var dev float64
		for _, r := range rows {
			d := r.XenPct + r.Dom0Pct - r.PaperPct
			if d < 0 {
				d = -d
			}
			dev += d
		}
		b.ReportMetric(dev/float64(len(rows)), "meanAbsDev_pp")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figure2()
		// The 16-VM ideal point the paper quotes (>93%).
		for _, r := range rows {
			if r.VMs == 16 && r.HvRatioPct == 0 {
				b.ReportMetric(r.ReductionPct, "ideal16VM_red_pct")
			}
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f3, _ := exp.Figure3Table1(benchScale)
		var under, over float64
		for _, r := range f3 {
			under += r.NormFullUnderPct
			over += r.NormFullOverPct
		}
		n := float64(len(f3))
		b.ReportMetric(under/n, "under_full_vs_pinned_pct")
		b.ReportMetric(over/n, "over_full_vs_pinned_pct")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t1 := exp.Figure3Table1(benchScale)
		var ratio float64
		for _, r := range t1 {
			if r.OverMS > 0 {
				ratio += r.UnderMS / r.OverMS
			}
		}
		// Overcommitted systems must relocate much more often.
		b.ReportMetric(ratio/float64(len(t1)), "under_over_period_ratio")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table4Figure6(benchScale)
		var red float64
		for _, r := range rows {
			red += r.TrafficReductionPct
		}
		b.ReportMetric(red/float64(len(rows)), "traffic_red_pct") // paper: 63.68
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table4Figure6(benchScale)
		var rt float64
		for _, r := range rows {
			rt += r.NormRuntimePct
		}
		b.ReportMetric(rt/float64(len(rows)), "norm_runtime_pct") // paper: ~96.2
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figures78Periods(benchScale, benchApps, []float64{5, 2.5})
		b.ReportMetric(avgPolicy(rows, "counter"), "counter_norm_pct") // paper: ~25-30
		b.ReportMetric(avgPolicy(rows, "vsnoop-base"), "base_norm_pct")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figures78Periods(benchScale, benchApps, []float64{0.5, 0.1})
		b.ReportMetric(avgPolicy(rows, "counter"), "counter_norm_pct")  // paper: ~40-55
		b.ReportMetric(avgPolicy(rows, "vsnoop-base"), "base_norm_pct") // paper: ~80-96
	}
}

func avgPolicy(rows []exp.Fig78Row, policy string) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Policy.String() == policy {
			sum += r.NormSnoopPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := exp.Figure9(benchScale, []string{"fft", "ocean"})
		for _, s := range series {
			if s.N > 0 {
				// Fraction of removals completed within 10 scaled ms
				// (paper: "for most of the occurrences ... within 10ms").
				within := 0.0
				for j, x := range s.Xms {
					if x <= 10 {
						within = s.CDF[j]
					}
				}
				b.ReportMetric(100*within, "removed_within_10ms_pct_"+s.Workload)
			}
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table5(benchScale)
		var acc, miss float64
		for _, r := range rows {
			acc += r.AccessPct
			miss += r.MissPct
		}
		n := float64(len(rows))
		b.ReportMetric(acc/n, "content_access_pct") // paper: 12.51
		b.ReportMetric(miss/n, "content_miss_pct")  // paper: 19.94
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f10, _ := exp.Figure10Table6(benchScale)
		agg := map[string][]float64{}
		for _, r := range f10 {
			agg[r.Policy.String()] = append(agg[r.Policy.String()], r.NormSnoopPct)
		}
		for pol, vals := range agg {
			var s float64
			for _, v := range vals {
				s += v
			}
			b.ReportMetric(s/float64(len(vals)), pol+"_norm_pct")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t6 := exp.Figure10Table6(benchScale)
		var mem float64
		for _, r := range t6 {
			mem += r.MemoryPct
		}
		if len(t6) > 0 {
			b.ReportMetric(mem/float64(len(t6)), "memory_holder_pct") // paper: 37-53
		}
	}
}

// BenchmarkSingleRun measures the simulator's own throughput: one pinned
// fft run per iteration, useful for performance regressions of the
// simulation engine itself.
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(singleRunConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// singleRunConfig is the configuration of BenchmarkSingleRun.
func singleRunConfig() Config {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 2000
	cfg.WarmupRefs = 0
	return cfg
}

// singleRunAllocsMax bounds the allocations of one BenchmarkSingleRun
// iteration. A run reads about 1,000; the bound leaves room for setup
// growth while catching any per-reference allocation (a run issues 32,000
// references).
const singleRunAllocsMax = 5000

// TestSingleRunAllocs gates one BenchmarkSingleRun iteration at
// singleRunAllocsMax, so a plain go test holds the benchmark's allocation
// budget.
func TestSingleRunAllocs(t *testing.T) {
	cfg := singleRunConfig()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > singleRunAllocsMax {
		t.Fatalf("one BenchmarkSingleRun iteration allocates %.0f times, gate %d", avg, singleRunAllocsMax)
	}
	t.Logf("%.0f allocs per run, gate %d", avg, singleRunAllocsMax)
}

// Migration and content-sharing runs exercise the machine's cross-domain
// ownership transfer and domain-owned COW overlays.
func BenchmarkMigrationRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 2000
		cfg.WarmupRefs = 0
		cfg.MigrationPeriodMs = 2.5
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContentRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 2000
		cfg.WarmupRefs = 0
		cfg.ContentSharing = true
		cfg.Content = ContentFriendVM
		cfg.Policy = PolicyCounter
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
