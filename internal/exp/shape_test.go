package exp

import (
	"testing"

	"vsnoop/internal/core"
)

// shapeScale keeps both experiments to a few seconds on a 2-vCPU host. The
// claims below also held, with margin, at about half and twice these
// stream lengths.
var shapeScale = Scale{
	Name:    "shape",
	RefsMig: 3000, MigWarmup: 1000,
	RefsContent: 1500, Warmup: 1500,
	Seeds: 1,
}

// shapeMigApps are the Figure 7/8 applications the shape test sweeps.
var shapeMigApps = []string{"fft", "canneal", "specjbb"}

// TestFigures78Shape pins the paper's Figure 7/8 ordering at every
// migration period: the residence counters remove departed cores from a
// VM's map, so counter snoops stay below base snoops, and the threshold
// variant snoops no more than plain counters.
func TestFigures78Shape(t *testing.T) {
	rows := Figures78Periods(shapeScale, shapeMigApps, MigPeriods)
	type cell struct {
		app    string
		period float64
	}
	pct := make(map[cell]map[core.Policy]float64)
	for _, r := range rows {
		c := cell{r.Workload, r.PeriodMs}
		if pct[c] == nil {
			pct[c] = make(map[core.Policy]float64)
		}
		pct[c][r.Policy] = r.NormSnoopPct
	}
	for _, app := range shapeMigApps {
		for _, p := range MigPeriods {
			m := pct[cell{app, p}]
			base, counter, thresh := m[core.PolicyBase], m[core.PolicyCounter], m[core.PolicyCounterThreshold]
			if base == 0 || counter == 0 || thresh == 0 {
				t.Fatalf("%s at %g ms: missing policy rows %v", app, p, m)
			}
			if counter >= base {
				t.Errorf("%s at %g ms: counter snoops %.2f%% not below base %.2f%%", app, p, counter, base)
			}
			if thresh > counter {
				t.Errorf("%s at %g ms: counter-threshold snoops %.2f%% above counter %.2f%%", app, p, thresh, counter)
			}
		}
	}
}

// TestFigure10Shape pins the paper's Figure 10 ordering on the Table VI
// applications: routing content-shared misses by memory-direct, intra-VM
// or friend-VM lookups always snoops less than broadcasting them.
func TestFigure10Shape(t *testing.T) {
	f10, _ := Figure10Table6(shapeScale)
	pct := make(map[string]map[core.ContentPolicy]float64)
	for _, r := range f10 {
		if pct[r.Workload] == nil {
			pct[r.Workload] = make(map[core.ContentPolicy]float64)
		}
		pct[r.Workload][r.Policy] = r.NormSnoopPct
	}
	for _, app := range Table6Apps {
		bcast, ok := pct[app][core.ContentBroadcast]
		if !ok {
			t.Fatalf("%s: no content-broadcast row", app)
		}
		for _, cp := range ContentPolicies {
			if cp == core.ContentBroadcast {
				continue
			}
			got, ok := pct[app][cp]
			if !ok {
				t.Fatalf("%s: no %v row", app, cp)
			}
			if got >= bcast {
				t.Errorf("%s: %v snoops %.2f%% not below content broadcast %.2f%%", app, cp, got, bcast)
			}
		}
	}
}
