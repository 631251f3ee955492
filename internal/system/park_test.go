package system

import (
	"errors"
	"fmt"
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/core"
	"vsnoop/internal/fault"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// runParking runs cfg with snoop parking and timeout cancellation as wired
// by New, or, with shadow set, in the controllers' shadow mode: every
// delivery and timeout stays a real event, and each one parking or
// cancellation would have skipped is checked to be a no-op. It returns the
// stats, the shadow counters summed over the controllers with the parking
// table's put-back count, and the parked snoops that straddled a warm-up
// snapshot.
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
	sh = sumShadow(m)
	if m.parkTab != nil {
		sh.tablePutBacks, _ = m.parkTab.Counts()
	}
	for _, d := range m.doms {
		straddled += d.st.warm.parkedAhead
	}
	return st, sh, straddled
}

// shadowCounts sums the controllers' ShadowStats and TimeoutShadowStats;
// tablePutBacks is what the parking table counted as put back.
type shadowCounts struct {
	checked, putBacks, violations  uint64
	timersChecked, timerViolations uint64
	tablePutBacks                  uint64
}

func sumShadow(m *Machine) (sh shadowCounts) {
	for _, cn := range m.cores {
		if cn.ctrl != nil {
			c, p, v := cn.ctrl.ShadowStats()
			sh.checked += c
			sh.putBacks += p
			sh.violations += v
			c, v = cn.ctrl.TimeoutShadowStats()
			sh.timersChecked += c
			sh.timerViolations += v
		}
	}
	return sh
}

// TestParkedSnoopsShadow is the proof obligation of snoop parking and
// retry-timeout cancellation. For every token policy, content mode and
// migration period, a shadow run must find every delivery parking would
// have skipped, and every timeout a completion would have cancelled, to be
// a no-op; and the parked run's statistics — EventsFired included — must
// equal the shadow run's, which executes every delivery and timeout. Each
// case runs twice, with and without the invariant checker; both passes park
// and cancel. With the checker the parking run must find no violation and
// sweep exactly as often as the shadow run, whose trailing no-op timeouts
// run past the last vCPU's finish: sweeps stop once every vCPU has
// finished, so those timeouts add none. Put-backs are rare (a token gain racing a snoop in
// flight), so the blackscholes cases, where they occur, must see at least
// one, and the parking run must put back through its requesters' records
// exactly the deliveries the shadow run found.
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
			cfg.Filter.Policy = tc.pol
			cfg.Filter.Content = tc.content
			cfg.UseRegionScout = tc.rs
			cfg.ContentSharing = tc.sharing
			cfg.MigrationPeriodMs = tc.period
			for _, checks := range []bool{true, false} {
				cfg.Checks = checks
				pass := fmt.Sprintf("checks=%v", checks)
				shadow, sh, _ := runParking(t, cfg, true)
				if sh.violations > 0 {
					t.Fatalf("%s: %d of %d deliveries parking would skip were not no-ops", pass, sh.violations, sh.checked)
				}
				if sh.timerViolations > 0 {
					t.Fatalf("%s: %d of %d timeouts cancellation would skip were not no-ops", pass, sh.timerViolations, sh.timersChecked)
				}
				if shadow.Sync.CancelledTimers != 0 || shadow.Sync.ParkedEvents != 0 {
					t.Fatalf("%s: shadow run parked %d events and cancelled %d timers", pass, shadow.Sync.ParkedEvents, shadow.Sync.CancelledTimers)
				}
				if sh.checked == 0 || sh.timersChecked == 0 {
					t.Fatalf("%s: the shadow run checked %d deliveries and %d timeouts", pass, sh.checked, sh.timersChecked)
				}
				if tc.app == "blackscholes" && sh.putBacks == 0 {
					t.Fatalf("%s: no token gain put a parked delivery back", pass)
				}
				if tc.period > 0 && shadow.Relocations == 0 {
					t.Fatal("migration config relocated nothing")
				}
				if checks && (shadow.InvariantChecks == 0 || len(shadow.InvariantViolations) > 0) {
					t.Fatalf("%s: %d invariant checks, violations %v", pass, shadow.InvariantChecks, shadow.InvariantViolations)
				}
				st, live, _ := runParking(t, cfg, false)
				if live.tablePutBacks != sh.putBacks || sh.tablePutBacks != sh.putBacks {
					t.Fatalf("%s: %d deliveries put back, %d in the shadow run (%d by its table); want equal",
						pass, live.tablePutBacks, sh.putBacks, sh.tablePutBacks)
				}
				if st.Sync.ParkedEvents == 0 || st.Sync.CancelledTimers == 0 {
					t.Fatalf("%s: %d events parked, %d timers cancelled", pass, st.Sync.ParkedEvents, st.Sync.CancelledTimers)
				}
				statsEqual(t, "parked "+pass, shadow, st)
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

// TestParkingOffWhereIneligible checks where parking and timeout
// cancellation go: a fault plan (drops and duplicates need real events)
// turns both off, and a step budget does not. A budget of at least the
// unbounded run's EventsFired never trips, counting the parked and
// cancelled events it stands for, so the bounded run parks, cancels and
// computes the unbounded run's statistics, EventsFired included.
func TestParkingOffWhereIneligible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 500
	cfg.Filter.Policy = core.PolicyCounter
	free, _, _ := runParking(t, cfg, false)

	faulted := cfg
	faulted.Fault = fault.Moderate(3)
	st, sh, _ := runParking(t, faulted, true)
	if st.Sync.ParkedEvents != 0 || sh.checked != 0 || sh.timersChecked != 0 {
		t.Errorf("fault: %d events parked, %d delivery and %d timeout shadow checks; want none",
			st.Sync.ParkedEvents, sh.checked, sh.timersChecked)
	}
	st, _, _ = runParking(t, faulted, false)
	if st.Sync.ParkedEvents != 0 || st.Sync.CancelledTimers != 0 {
		t.Errorf("fault: %d events parked, %d timers cancelled; want 0, 0",
			st.Sync.ParkedEvents, st.Sync.CancelledTimers)
	}

	for _, budget := range []uint64{free.EventsFired, 1 << 40} {
		bounded := cfg
		bounded.MaxSteps = budget
		st, _, _ := runParking(t, bounded, false)
		if st.Sync.ParkedEvents == 0 || st.Sync.CancelledTimers == 0 {
			t.Errorf("maxsteps %d: %d events parked, %d timers cancelled; want both nonzero",
				budget, st.Sync.ParkedEvents, st.Sync.CancelledTimers)
		}
		statsEqual(t, fmt.Sprintf("maxsteps %d", budget), free, st)
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

// TestCancelledTimeoutsEarlyExit stops a run right after its 40th
// completed transaction, when the timeouts of the latest completions were
// cancelled and counted but are not yet due. Those events would never have
// fired, so the early exit must take their counts back out, while the
// cancelled timeouts that have passed keep theirs: the stats, EventsFired
// included, equal those of a run whose timeouts stay in the queue, checked
// in shadow mode, stopped at the same event. Parking is live in both runs,
// so the two execute the same events up to the stop.
func TestCancelledTimeoutsEarlyExit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 500
	cfg.Filter.Policy = core.PolicyBroadcast
	const stopAfter = 40
	run := func(shadow bool) (*Stats, shadowCounts, uint64) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		completed := 0
		for _, cn := range m.cores {
			if shadow {
				cn.ctrl.CancelTimeouts(true)
			}
			ctrl, onFill := cn.ctrl, cn.ctrl.OnFill
			cn.ctrl.OnFill = func(b *cache.Block, tx *token.Txn) {
				onFill(b, tx)
				if completed++; completed == stopAfter {
					// The watchdog trips before the next event.
					ctrl.Eng.SetProgressLimit(1)
				}
			}
		}
		st, err := m.RunChecked()
		var np *sim.NoProgressError
		if !errors.As(err, &np) {
			t.Fatalf("shadow=%v: run ended with %v, want the watchdog stop", shadow, err)
		}
		var ahead uint64
		for _, cn := range m.cores {
			ahead += cn.ctrl.TimeoutsAhead()
		}
		return st, sumShadow(m), ahead
	}
	shadow, sh, ahead := run(true)
	st, _, _ := run(false)
	if sh.timerViolations > 0 {
		t.Fatalf("%d of %d shadow-checked timeouts were not no-ops", sh.timerViolations, sh.timersChecked)
	}
	if ahead == 0 || sh.timersChecked == 0 {
		t.Fatalf("at the stop %d cancellable timeouts had fired and %d were not yet due; want both nonzero",
			sh.timersChecked, ahead)
	}
	statsEqual(t, "early exit", shadow, st)
	if st.Sync.CancelledTimers != sh.timersChecked {
		t.Fatalf("%d cancelled timeouts kept their count, want the %d that had passed", st.Sync.CancelledTimers, sh.timersChecked)
	}
}
