package system

import (
	"errors"
	"fmt"
	"testing"

	"vsnoop/internal/core"
	"vsnoop/internal/fault"
	"vsnoop/internal/sim"
)

// runParking runs cfg with snoop parking as wired by New, or, with shadow
// set, in the controllers' shadow mode: every delivery stays a real event
// and each one parking would have skipped is checked to be a no-op. It
// returns the stats, the shadow counters summed over the controllers, and
// the parked snoops that straddled a warm-up snapshot.
func runParking(t *testing.T, cfg Config, shadow bool) (st *Stats, sh shadowCounts, straddled uint64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shadow {
		m.parkSnoops(true)
	}
	st, err = m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range m.cores {
		if cn.ctrl != nil {
			c, p, v := cn.ctrl.ShadowStats()
			sh.checked += c
			sh.putBacks += p
			sh.violations += v
		}
	}
	for _, d := range m.doms {
		straddled += d.st.warm.parkedAhead
	}
	return st, sh, straddled
}

// shadowCounts sums the controllers' ShadowStats.
type shadowCounts struct{ checked, putBacks, violations uint64 }

// TestParkedSnoopsShadow is the proof obligation of snoop parking. For
// every token policy, content mode and migration period, at K = 1, 2 and
// 4, a shadow run must find every delivery parking would have skipped to
// be a no-op, and the parked run's statistics — EventsFired included —
// must equal the shadow run's, which executes every delivery. Put-backs
// are rare (a token gain racing a snoop in flight), so the blackscholes
// cases, where they occur, must see at least one.
func TestParkedSnoopsShadow(t *testing.T) {
	type tcase struct {
		app     string
		pol     core.Policy
		rs      bool
		content core.ContentPolicy
		sharing bool
		period  float64
	}
	var cases []tcase
	policies := []core.Policy{core.PolicyBroadcast, core.PolicyBase, core.PolicyCounter,
		core.PolicyCounterThreshold, core.PolicyCounterFlush}
	for _, period := range []float64{0, 0.5, 0.1} {
		for _, pol := range policies {
			cases = append(cases, tcase{app: "fft", pol: pol, period: period})
		}
		cases = append(cases, tcase{app: "fft", pol: core.PolicyBroadcast, rs: true, period: period})
	}
	for _, con := range []core.ContentPolicy{core.ContentBroadcast, core.ContentMemoryDirect,
		core.ContentIntraVM, core.ContentFriendVM} {
		cases = append(cases, tcase{app: "fft", pol: core.PolicyCounter, content: con, sharing: true, period: 0.1})
	}
	for _, pol := range []core.Policy{core.PolicyBroadcast, core.PolicyCounter} {
		cases = append(cases, tcase{app: "blackscholes", pol: pol, period: 0.1})
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s_%v_%v_%gms", tc.app, tc.pol, tc.content, tc.period)
		if tc.rs {
			name = fmt.Sprintf("%s_regionscout_%gms", tc.app, tc.period)
		}
		if tc.sharing {
			name += "_sharing"
		}
		tc := tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Workloads = []string{tc.app}
			cfg.RefsPerVCPU = 500
			cfg.WarmupRefs = 100
			cfg.Checks = true
			cfg.Filter.Policy = tc.pol
			cfg.Filter.Content = tc.content
			cfg.UseRegionScout = tc.rs
			cfg.ContentSharing = tc.sharing
			cfg.MigrationPeriodMs = tc.period
			var ref *Stats
			for _, k := range []int{1, 2, 4} {
				cfg.Shards = k
				shadow, sh, _ := runParking(t, cfg, true)
				if sh.violations > 0 {
					t.Fatalf("K=%d: %d of %d deliveries parking would skip were not no-ops", k, sh.violations, sh.checked)
				}
				if k == 1 {
					if sh.checked == 0 {
						t.Fatal("K=1: the shadow run checked no delivery")
					}
					if tc.app == "blackscholes" && sh.putBacks == 0 {
						t.Fatal("K=1: no token gain put a parked delivery back")
					}
					if shadow.Sync.ParkedEvents != 0 {
						t.Fatalf("K=1: shadow run parked %d events", shadow.Sync.ParkedEvents)
					}
					if tc.period > 0 && shadow.Relocations == 0 {
						t.Fatal("migration config relocated nothing")
					}
					ref = shadow
				} else {
					statsEqual(t, fmt.Sprintf("shadow K=%d", k), ref, shadow)
				}
				st, _, _ := runParking(t, cfg, false)
				if k == 1 && st.Sync.ParkedEvents == 0 {
					t.Fatal("K=1: nothing was parked")
				}
				statsEqual(t, fmt.Sprintf("parked K=%d", k), ref, st)
			}
		})
	}
}

// TestParkedSnoopsStraddleWarmup covers a parked snoop sent before a
// domain's warm-up snapshot and due after it: the snapshot must leave it
// out, as it leaves out the event the delivery would have been.
func TestParkedSnoopsStraddleWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 1000
	cfg.WarmupRefs = 400
	cfg.Filter.Policy = core.PolicyBroadcast
	shadow, sh, _ := runParking(t, cfg, true)
	if sh.violations > 0 {
		t.Fatalf("%d shadow violations", sh.violations)
	}
	st, _, straddled := runParking(t, cfg, false)
	if straddled == 0 {
		t.Fatal("no parked snoop straddled a warm-up snapshot")
	}
	statsEqual(t, "warm-up straddle", shadow, st)
}

// TestParkingOffWhereIneligible checks the three configurations that must
// not park: a fault plan (drops and duplicates need real events), a step
// budget (MaxSteps counts executed events) and the legacy single-queue
// engine.
func TestParkingOffWhereIneligible(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.RefsPerVCPU = 500
		cfg.Filter.Policy = core.PolicyCounter
		return cfg
	}
	faulted := base()
	faulted.Fault = fault.Moderate(3)
	bounded := base()
	bounded.MaxSteps = 1 << 40
	legacy := base()
	legacy.ForceSerial = true
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"fault", faulted}, {"maxsteps", bounded}, {"legacy", legacy}} {
		st, sh, _ := runParking(t, c.cfg, true)
		if st.Sync.ParkedEvents != 0 || sh.checked != 0 {
			t.Errorf("%s: %d events parked, %d shadow checks; want none", c.name, st.Sync.ParkedEvents, sh.checked)
		}
		st, _, _ = runParking(t, c.cfg, false)
		if st.Sync.ParkedEvents != 0 {
			t.Errorf("%s: %d events parked, want 0", c.name, st.Sync.ParkedEvents)
		}
	}
}

// TestParkedSnoopsEarlyExit stops a run with the watchdog before the
// snoops of its first misses are due. Those deliveries were parked and
// counted at send time, but their events would never have fired, so the
// early exit must take them back out: the stats, EventsFired included,
// equal a shadow run's, which stops at the same event.
func TestParkedSnoopsEarlyExit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 500
	cfg.Filter.Policy = core.PolicyBroadcast
	cfg.ProgressLimit = 3
	run := func(shadow bool) *Stats {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shadow {
			m.parkSnoops(true)
		}
		st, err := m.RunChecked()
		var np *sim.NoProgressError
		if !errors.As(err, &np) {
			t.Fatalf("shadow=%v: run ended with %v, want a watchdog trip", shadow, err)
		}
		return st
	}
	shadow, parked := run(true), run(false)
	if shadow.EventsFired == 0 || shadow.SnoopsIssued == 0 {
		t.Fatalf("the run stopped before any miss: %d events, %d snoops issued", shadow.EventsFired, shadow.SnoopsIssued)
	}
	statsEqual(t, "watchdog exit", shadow, parked)
	if parked.Sync.ParkedEvents != 0 {
		t.Fatalf("%d parked events survived the early exit, want 0", parked.Sync.ParkedEvents)
	}
}
