package token_test

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// TestStarvationFreedom is the protocol's liveness argument as a table:
// destroy the first N transient request messages (or bounce the first N
// responses to the home controller) and the transaction must still
// complete — through timeouts and retries for small N, through the
// persistent-request path when every transient attempt is starved. The
// persistent path itself is never faulted (internal/fault's model: it is
// the reliable channel of last resort).
func TestStarvationFreedom(t *testing.T) {
	cases := []struct {
		name        string
		dropReqs    int // destroy the first N transient request messages
		bounceResps int // bounce the first N data/token responses home
		write       bool
		wantRetries uint64 // minimum
		wantPersist bool
	}{
		{name: "clean read"},
		{name: "clean write", write: true},
		// One full request volley lost (3 cores + home MC = 4 messages):
		// the timeout must fire and the retry complete.
		{name: "one volley lost", dropReqs: 4, wantRetries: 1},
		{name: "two volleys lost, write", dropReqs: 8, write: true, wantRetries: 2},
		// Every transient attempt starved: only the persistent path can
		// finish the transaction.
		{name: "starved to persistent", dropReqs: 1000, write: true,
			wantRetries: 3, wantPersist: true},
		{name: "starved read to persistent", dropReqs: 1000,
			wantRetries: 3, wantPersist: true},
		// Responses misdelivered to the home controller: tokens are
		// absorbed there and the retry fetches them from memory.
		{name: "responses bounced home", bounceResps: 2, wantRetries: 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 4, nil)
			droppedReqs, bouncedResps := 0, 0
			h.net.FaultHook = func(src, dst mesh.NodeID, bytes int, payload interface{}) mesh.FaultOutcome {
				msg, ok := payload.(*token.Msg)
				if !ok {
					return mesh.FaultOutcome{}
				}
				switch msg.Kind {
				case token.MsgGetS, token.MsgGetX:
					if droppedReqs < tc.dropReqs {
						droppedReqs++
						return mesh.FaultOutcome{Drop: true}
					}
				case token.MsgData, token.MsgTokens:
					if bouncedResps < tc.bounceResps {
						bouncedResps++
						return mesh.FaultOutcome{Redirected: true, RedirectTo: h.mc.Node}
					}
				}
				return mesh.FaultOutcome{}
			}

			done := false
			h.ctrls[0].Start(100, 1, mem.PagePrivate, tc.write, call, func() { done = true })
			h.run()

			if !done {
				t.Fatalf("transaction starved: dropped %d requests, bounced %d responses",
					droppedReqs, bouncedResps)
			}
			st := h.ctrls[0].Stats
			if st.Retries < tc.wantRetries {
				t.Fatalf("Retries = %d, want >= %d", st.Retries, tc.wantRetries)
			}
			if tc.wantPersist && st.Persistent == 0 {
				t.Fatal("persistent path never activated despite total starvation")
			}
			if !tc.wantPersist && st.Persistent != 0 {
				t.Fatalf("persistent activated (%d) for a recoverable loss", st.Persistent)
			}
			if tc.wantRetries == 0 && st.Retries != 0 {
				t.Fatalf("clean run retried %d times", st.Retries)
			}
			// Tokens must be conserved whatever path completed the
			// transaction.
			h.checkConservation(t, []mem.BlockAddr{100})
		})
	}
}

// TestRetryBackoffGrows pins the exponential-backoff shape: each retry's
// timeout wait doubles (capped), so retry issue times spread apart instead
// of hammering a congested system at a fixed period.
func TestRetryBackoffGrows(t *testing.T) {
	h := newHarness(t, 4, nil)
	// Starve every transient attempt; record when each is issued.
	var issueCycles []uint64
	h.net.FaultHook = func(src, dst mesh.NodeID, bytes int, payload interface{}) mesh.FaultOutcome {
		msg, ok := payload.(*token.Msg)
		if ok && (msg.Kind == token.MsgGetS || msg.Kind == token.MsgGetX) {
			if n := len(issueCycles); n == 0 || issueCycles[n-1] != uint64(h.eng.Now()) {
				issueCycles = append(issueCycles, uint64(h.eng.Now()))
			}
			return mesh.FaultOutcome{Drop: true}
		}
		return mesh.FaultOutcome{}
	}
	done := false
	h.ctrls[0].Start(100, 1, mem.PagePrivate, true, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("persistent path did not rescue the starved write")
	}
	if len(issueCycles) < 4 {
		t.Fatalf("only %d transient attempts observed, want >= 4", len(issueCycles))
	}
	// Gaps between successive attempts must be non-decreasing in the
	// deterministic part (base << attempt dominates the per-attempt
	// jitter, which is at most TimeoutJitter * attempt).
	prevGap := uint64(0)
	for i := 1; i < len(issueCycles); i++ {
		gap := issueCycles[i] - issueCycles[i-1]
		if gap < prevGap {
			t.Fatalf("retry gap shrank: attempt %d gap %d < previous %d (cycles %v)",
				i+1, gap, prevGap, issueCycles)
		}
		prevGap = gap
	}
	// And the last transient gap must exceed the first by at least one
	// doubling, proving the backoff is actually exponential, not constant.
	first := issueCycles[1] - issueCycles[0]
	last := issueCycles[len(issueCycles)-1] - issueCycles[len(issueCycles)-2]
	if last < 2*first-uint64(h.p.TimeoutJitter)*8 {
		t.Fatalf("backoff not growing: first gap %d, last gap %d", first, last)
	}
}
