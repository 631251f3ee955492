package exp

import (
	"testing"
)

// tiny is a minimal scale for smoke-testing the experiment plumbing (the
// calibrated results are validated at quick/full scale by vsnoop-report
// and the root benchmarks).
var tiny = Scale{
	Name:       "tiny",
	RefsPinned: 800, RefsMig: 1500, RefsContent: 800, RefsFig1: 800,
	SchedWorkMS: 200,
	Warmup:      800, MigWarmup: 500,
}

func TestFigure2Model(t *testing.T) {
	rows := Figure2()
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 4 VM counts x 6 ratios", len(rows))
	}
	for _, r := range rows {
		// Closed form must match (1-h)(1-4/N).
		want := (1 - r.HvRatioPct/100) * (1 - 4/float64(r.Cores)) * 100
		if diff := r.ReductionPct - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %+v: reduction %v != %v", r, r.ReductionPct, want)
		}
	}
	// Monotone in VMs at fixed ratio.
	prev := -1.0
	for _, r := range rows {
		if r.HvRatioPct != 0 {
			continue
		}
		if r.ReductionPct <= prev {
			t.Fatal("reduction not increasing with VM count")
		}
		prev = r.ReductionPct
	}
}

func TestFigure1Smoke(t *testing.T) {
	rows := Figure1(Scale{RefsFig1: 1500, Warmup: 500})
	if len(rows) != len(Fig1Apps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		total := r.XenPct + r.Dom0Pct + r.GuestPct
		if total < 99.9 || total > 100.1 {
			t.Fatalf("%s: decomposition sums to %v", r.Workload, total)
		}
		if r.PaperPct == 0 {
			t.Fatalf("%s: missing paper reference", r.Workload)
		}
	}
}

func TestFigure3Table1Smoke(t *testing.T) {
	f3, t1 := Figure3Table1(tiny)
	if len(f3) != len(ParsecApps) || len(t1) != len(ParsecApps) {
		t.Fatalf("rows = %d/%d", len(f3), len(t1))
	}
	for _, r := range t1 {
		if r.UnderMS <= 0 || r.OverMS <= 0 {
			t.Fatalf("%s: non-positive periods %+v", r.Workload, r)
		}
		if r.PaperUnderMS == 0 {
			t.Fatalf("%s: missing paper reference", r.Workload)
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	rows := Table4Figure6(Scale{RefsPinned: 1200, Warmup: 600})
	if len(rows) != len(SectionVApps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SnoopReductionPct < 70 || r.SnoopReductionPct > 80 {
			t.Fatalf("%s: snoop reduction %.1f%%, want ~75%%", r.Workload, r.SnoopReductionPct)
		}
		if r.TrafficReductionPct < 30 {
			t.Fatalf("%s: traffic reduction %.1f%% too low", r.Workload, r.TrafficReductionPct)
		}
	}
}

func TestFigures78Smoke(t *testing.T) {
	rows := Figures78Periods(tiny, []string{"fft"}, []float64{0.5})
	if len(rows) != len(MigPolicies) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormSnoopPct <= 0 || r.NormSnoopPct > 130 {
			t.Fatalf("%v: norm snoops %.1f%% out of range", r.Policy, r.NormSnoopPct)
		}
		if r.Relocations == 0 {
			t.Fatalf("%v: no relocations", r.Policy)
		}
	}
}

func TestTable5Smoke(t *testing.T) {
	rows := Table5(Scale{RefsContent: 1200, Warmup: 600})
	if len(rows) != len(ContentApps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AccessPct < 0 || r.AccessPct > 100 || r.MissPct < 0 || r.MissPct > 100 {
			t.Fatalf("%s: out-of-range percentages %+v", r.Workload, r)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	rows := Ablations(tiny)
	if len(rows) < 5 {
		t.Fatalf("only %d ablations", len(rows))
	}
	for _, r := range rows {
		if r.Name == "" || r.Unit == "" {
			t.Fatalf("incomplete row %+v", r)
		}
		if r.Baseline == 0 && r.Variant == 0 {
			t.Fatalf("%s: degenerate ablation", r.Name)
		}
	}
}

func TestMigRefsScaling(t *testing.T) {
	if migRefs(1000, 5) != 2000 {
		t.Fatal("5ms should double refs")
	}
	if migRefs(1000, 2.5) != 1000 {
		t.Fatal("2.5ms should keep base refs")
	}
	if migRefs(1000, 0.1) != 400 {
		t.Fatal("0.1ms should use 2/5 of base")
	}
}

func TestComparisonSmoke(t *testing.T) {
	rows := Comparison(Scale{RefsPinned: 1000, Warmup: 500})
	if len(rows) != 4*len(ComparisonApps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Filter == "tokenB" && (r.NormSnoopPct < 99.9 || r.NormSnoopPct > 100.1) {
			t.Fatalf("baseline not 100%%: %+v", r)
		}
		if r.Filter != "tokenB" && r.Filter != "directory" && r.NormSnoopPct >= 90 {
			t.Fatalf("%s/%s filtered almost nothing: %+v", r.Workload, r.Filter, r)
		}
		if r.Filter == "regionscout" && r.RegionNSRTHits == 0 {
			t.Fatalf("%s: regionscout never used its NSRT", r.Workload)
		}
	}
}

func TestEnergySmoke(t *testing.T) {
	rows := Energy(Scale{RefsPinned: 1000, Warmup: 500})
	if len(rows) != 2*len(EnergyApps) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalNJ <= 0 {
			t.Fatalf("%s/%v: zero energy", r.Workload, r.Policy)
		}
		if r.Policy.String() == "vsnoop-base" && r.NormSnoopTagPct >= 50 {
			t.Fatalf("%s: snoop-tag energy only dropped to %.1f%%", r.Workload, r.NormSnoopTagPct)
		}
	}
}
