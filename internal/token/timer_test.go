package token_test

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
)

// TestCompleteCancelsTimeout runs the same cold misses without timeout
// cancellation, with it, and in its shadow mode. With cancellation each
// completed transaction's pending timeout leaves the queue and counts as
// fired; in shadow mode it fires and is checked to be a no-op. Every way
// fires the same number of events and drains the queue.
func TestCompleteCancelsTimeout(t *testing.T) {
	addrs := []mem.BlockAddr{100, 101, 102}
	run := func(mode string) *harness {
		h := newHarness(t, 2, nil)
		c := h.ctrls[0]
		switch mode {
		case "cancel":
			c.CancelTimeouts(false)
		case "shadow":
			c.CancelTimeouts(true)
		}
		done := 0
		for _, a := range addrs {
			c.Start(a, 1, mem.PagePrivate, false, call, func() { done++ })
			h.run()
		}
		if done != len(addrs) || h.eng.Pending() != 0 {
			t.Fatalf("%s: %d of %d transactions done, %d events pending", mode, done, len(addrs), h.eng.Pending())
		}
		return h
	}
	plain, cancel, shadow := run("plain"), run("cancel"), run("shadow")
	if plain.eng.Fired() != cancel.eng.Fired() || plain.eng.Fired() != shadow.eng.Fired() {
		t.Fatalf("fired %d plain, %d cancelling, %d shadow; want all equal",
			plain.eng.Fired(), cancel.eng.Fired(), shadow.eng.Fired())
	}
	if got := cancel.eng.Cancelled(); got != uint64(len(addrs)) {
		t.Fatalf("%d timeouts cancelled, want one per transaction (%d)", got, len(addrs))
	}
	checked, violations := shadow.ctrls[0].TimeoutShadowStats()
	if shadow.eng.Cancelled() != 0 || checked != uint64(len(addrs)) || violations != 0 {
		t.Fatalf("shadow: %d cancelled, %d checked, %d violations; want 0, %d, 0",
			shadow.eng.Cancelled(), checked, violations, len(addrs))
	}
}

// TestDropCancelledAtEarlyExit stops a run after a transaction completed
// but before its cancelled timeout was due: DropCancelled withdraws that
// count, leaving the fired total of a run whose timeout stayed queued and
// stopped at the same cycle.
func TestDropCancelledAtEarlyExit(t *testing.T) {
	var doneAt sim.Cycle
	run := func(shadow bool, until sim.Cycle) *harness {
		h := newHarness(t, 2, nil)
		c := h.ctrls[0]
		c.CancelTimeouts(shadow)
		c.Start(200, 1, mem.PagePrivate, false, call, func() { doneAt = h.eng.Now() })
		h.eng.RunUntil(until)
		return h
	}
	run(true, 1<<20) // learn when the transaction completes
	stop := doneAt + 1
	shadow, cancel := run(true, stop), run(false, stop)
	c := cancel.ctrls[0]
	if doneAt == 0 || c.TimeoutsAhead() != 1 || cancel.eng.Cancelled() != 1 {
		t.Fatalf("at cycle %d: %d cancelled timeouts ahead, %d cancelled; want 1, 1 (done at %d)",
			stop, c.TimeoutsAhead(), cancel.eng.Cancelled(), doneAt)
	}
	if got := c.DropCancelled(); got != 1 {
		t.Fatalf("DropCancelled dropped %d, want 1", got)
	}
	if cancel.eng.Fired() != shadow.eng.Fired() || cancel.eng.Cancelled() != 0 || c.TimeoutsAhead() != 0 {
		t.Fatalf("after the drop: fired %d, cancelled %d, %d ahead; want %d (shadow), 0, 0",
			cancel.eng.Fired(), cancel.eng.Cancelled(), c.TimeoutsAhead(), shadow.eng.Fired())
	}
	if got := shadow.ctrls[0].DropCancelled(); got != 0 {
		t.Fatalf("shadow DropCancelled dropped %d, want 0: nothing was counted", got)
	}
}

// TestCancelTimeoutZeroAlloc gates cancellation at zero allocations in
// steady state: arming, cancelling and recording a cancelled timeout, and
// pruning the list once it fills, reuse the controller's list and the
// engine's node pool.
func TestCancelTimeoutZeroAlloc(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.useStaticRouter()
	c := h.ctrls[0]
	c.CancelTimeouts(false)
	fn := func(interface{}, uint64) {}
	a := mem.BlockAddr(1000)
	iter := func() {
		c.Start(a, 1, mem.PagePrivate, false, fn, nil)
		h.run()
		a++
	}
	iter()
	if avg := testing.AllocsPerRun(256, iter); avg != 0 {
		t.Fatalf("a miss with timeout cancellation allocates %.2f times, want 0", avg)
	}
	if got, want := h.eng.Cancelled(), uint64(256+2); got != want {
		t.Fatalf("%d timeouts cancelled, want %d", got, want)
	}
}
