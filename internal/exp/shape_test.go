package exp

import (
	"math"
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
}

// shapeMigApps are the Figure 7/8 applications the shape test sweeps.
var shapeMigApps = []string{"fft", "canneal", "specjbb"}

// counterBand5ms bounds counter snoops at the 5 ms period, as a percentage
// of TokenB's: 26.0-26.2% on every app of the quick report, near the
// paper's ideal of one quadrant's four cores in sixteen (25%).
var counterBand5ms = [2]float64{25, 28}

// TestFigures78Shape pins the paper's Figure 7/8 ordering at every
// migration period: the residence counters remove departed cores from a
// VM's map, so counter snoops stay below base snoops, and the threshold
// variant snoops no more than plain counters. At the slowest period, 5 ms,
// counter snoops also stay inside counterBand5ms.
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
			if p == 5 && (counter < counterBand5ms[0] || counter > counterBand5ms[1]) {
				t.Errorf("%s at 5 ms: counter snoops %.2f%% outside %g-%g%%", app, counter, counterBand5ms[0], counterBand5ms[1])
			}
		}
	}
}

// TestFigure10Shape pins the paper's Figure 10 ordering on the Table VI
// applications: routing content-shared misses by memory-direct, intra-VM
// or friend-VM lookups always snoops less than broadcasting them. On every
// Figure 10 application, memory-direct snoops least, or ties (radix ties
// at 25.0%).
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
	for _, app := range ContentApps {
		md, ok := pct[app][core.ContentMemoryDirect]
		if !ok {
			t.Fatalf("%s: no memory-direct row", app)
		}
		for _, cp := range ContentPolicies {
			if got := pct[app][cp]; got < md {
				t.Errorf("%s: %v snoops %.2f%%, below memory-direct %.2f%%", app, cp, got, md)
			}
		}
	}
}

// TestFigure9Divergence pins the one Figure 9 result known to differ from
// the paper as expected values, so that a change that moves it shows up.
// The paper says blackscholes never removes a departed core: its residence
// counters never reach zero. Here, with the scaled L2, its counters drain
// and every pending removal completes (0.00% never removed), while lu ends
// the run with 12.50% of its removals pending. At Quick scale the values
// are exact.
func TestFigure9Divergence(t *testing.T) {
	want := map[string]struct {
		neverPct float64
		removals int
	}{
		"blackscholes": {0, 42},
		"lu":           {12.5, 14},
	}
	for _, s := range Figure9(Quick, []string{"blackscholes", "lu"}) {
		w := want[s.Workload]
		if math.Abs(s.NeverRemovedPct-w.neverPct) > 0.005 || s.N != w.removals {
			t.Errorf("%s: %.2f%% never removed after %d removals, want %.2f%% after %d",
				s.Workload, s.NeverRemovedPct, s.N, w.neverPct, w.removals)
		}
	}
}

// fig1Band bounds, in percentage points, how far each application's
// measured hypervisor+dom0 share of L2 misses may sit from the paper's
// Figure 1 bar. At Quick scale the widest gap is canneal's 0.78 points
// (3.78% against 3.00%).
const fig1Band = 1.0

// TestFigure1Tolerance holds every Figure 1 application's hypervisor+dom0
// miss share, at Quick scale, within fig1Band of the paper's value.
func TestFigure1Tolerance(t *testing.T) {
	rows := Figure1(Quick)
	if len(rows) != len(Fig1Apps) {
		t.Fatalf("%d Figure 1 rows, want %d", len(rows), len(Fig1Apps))
	}
	for _, r := range rows {
		got := r.XenPct + r.Dom0Pct
		if math.Abs(got-r.PaperPct) > fig1Band {
			t.Errorf("%s: hypervisor+dom0 share %.2f%% of L2 misses, paper %.2f%%: more than %g points apart",
				r.Workload, got, r.PaperPct, fig1Band)
		}
	}
}

// Table V bands, in percentage points from the paper. At Quick scale the
// widest gaps are radix's 0.19 points of accesses (20.28% against 20.47%)
// and specjbb's 3.97 points of L2 misses (33.77% against 37.74%).
const (
	table5AccessBand = 0.5
	table5MissBand   = 5.0
)

// TestTable5Tolerance holds every Table V application's content-shared
// share of accesses within table5AccessBand, and of L2 misses within
// table5MissBand, of the paper's values at Quick scale.
func TestTable5Tolerance(t *testing.T) {
	rows := Table5(Quick)
	if len(rows) != len(ContentApps) {
		t.Fatalf("%d Table V rows, want %d", len(rows), len(ContentApps))
	}
	for _, r := range rows {
		if math.Abs(r.AccessPct-r.PaperAccess) > table5AccessBand {
			t.Errorf("%s: %.2f%% of accesses to content-shared pages, paper %.2f%%: more than %g points apart",
				r.Workload, r.AccessPct, r.PaperAccess, table5AccessBand)
		}
		if math.Abs(r.MissPct-r.PaperMiss) > table5MissBand {
			t.Errorf("%s: %.2f%% of L2 misses to content-shared pages, paper %.2f%%: more than %g points apart",
				r.Workload, r.MissPct, r.PaperMiss, table5MissBand)
		}
	}
}
