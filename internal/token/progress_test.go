package token_test

import (
	"testing"

	"vsnoop/internal/mem"
)

// TestCompletionResetsWatchdog chains many back-to-back coherence
// transactions with a watchdog limit far below the run's total event count
// but far above any single transaction's. Each completed transaction must
// audit forward progress — otherwise a long run of individually healthy
// transactions (the signature of a fault-plan delay storm, where retries
// inflate events-per-reference) trips the watchdog spuriously.
func TestCompletionResetsWatchdog(t *testing.T) {
	h := newHarness(t, 16, nil)
	const txns = 400
	const limit = 4000 // >> events per transaction, << events per run
	h.eng.SetProgressLimit(limit)

	completed := 0
	var start func(i int)
	start = func(i int) {
		if i >= txns {
			return
		}
		h.ctrls[i%16].Start(mem.BlockAddr(1000+i), 1, mem.PagePrivate, i%2 == 0, call, func() {
			completed++
			start(i + 1)
		})
	}
	start(0)

	if err := h.eng.Drain(0, 0, nil); err != nil {
		t.Fatalf("watchdog tripped after %d/%d transactions: %v", completed, txns, err)
	}
	if completed != txns {
		t.Fatalf("completed %d of %d transactions", completed, txns)
	}
	if h.eng.Fired() <= limit {
		t.Fatalf("rig too small to catch a regression: %d events <= limit %d", h.eng.Fired(), limit)
	}
}
