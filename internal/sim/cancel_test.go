package sim

import (
	"errors"
	"sync"
	"testing"
)

// TestCancelStopsEngine trips the Canceler from inside an event handler and
// checks that a bounded Drain surfaces a CanceledError within one
// polling period instead of draining the rest of the chain.
func TestCancelStopsEngine(t *testing.T) {
	e := NewEngine()
	c := NewCanceler()
	e.SetCancel(c)
	const chain = 10 * (cancelPollMask + 1)
	fired := 0
	var step func()
	step = func() {
		fired++
		if fired == 3 {
			c.Cancel()
		}
		if fired < chain {
			e.ScheduleFn(1, call, step, 0)
		}
	}
	e.ScheduleFn(1, call, step, 0)
	err := e.Drain(2*chain, 0, nil)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("Drain = %v, want *CanceledError", err)
	}
	if fired >= chain {
		t.Fatalf("fired %d events, cancel never took effect", fired)
	}
	// The poll runs every cancelPollMask+1 events, so at most one full
	// period may elapse between Cancel and the stop.
	if fired > 3+cancelPollMask+1 {
		t.Fatalf("fired %d events after cancel at 3; poll period is %d", fired, cancelPollMask+1)
	}
	if ce.Now == 0 || ce.Pending == 0 {
		t.Fatalf("CanceledError position empty: %+v", ce)
	}
}

// TestCancelCompletedRunUnaffected pins the control-plane contract: a run
// that finishes before its Canceler trips is bit-identical to a run with no
// Canceler at all.
func TestCancelCompletedRunUnaffected(t *testing.T) {
	run := func(c *Canceler) ([]Cycle, uint64) {
		e := NewEngine()
		e.SetCancel(c)
		var trace []Cycle
		for i := Cycle(1); i <= 600; i++ {
			e.ScheduleFn(i, call, func() { trace = append(trace, e.Now()) }, 0)
		}
		if err := e.Drain(1000, 0, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
		return trace, e.Fired()
	}
	plainTrace, plainFired := run(nil)
	withTrace, withFired := run(NewCanceler())
	if plainFired != withFired || len(plainTrace) != len(withTrace) {
		t.Fatalf("fired %d/%d trace %d/%d: Canceler changed a completed run",
			plainFired, withFired, len(plainTrace), len(withTrace))
	}
	for i := range plainTrace {
		if plainTrace[i] != withTrace[i] {
			t.Fatalf("trace[%d] = %d vs %d", i, plainTrace[i], withTrace[i])
		}
	}
}

// TestCancelNilSafety: a nil *Canceler must be inert on both methods so
// callers can thread an optional canceler without guarding every call site.
func TestCancelNilSafety(t *testing.T) {
	var c *Canceler
	c.Cancel() // must not panic
	if c.Canceled() {
		t.Fatal("nil Canceler reports canceled")
	}
}

// cancelPingPong runs an endless 4-domain event chain with cross-domain
// arrivals, attaches a Canceler, and cancels from another goroutine once
// the chain has run a while; observed drains under an observer every L
// cycles. Covers the path vsnoop-serve uses: the HTTP handler cancels, the
// simulation goroutine observes.
func cancelPingPong(t *testing.T, observed bool) error {
	t.Helper()
	const L, nd = 6, 4
	e := NewEngine()
	e.SetDomains(nd)
	c := NewCanceler()
	e.SetCancel(c)
	const crossMark = uint64(1) << 40
	started := make(chan struct{})
	var once sync.Once
	var step HandlerFn
	step = func(arg interface{}, u uint64) {
		d := arg.(int)
		now := e.Now()
		if u&^crossMark > 2*(cancelPollMask+1) {
			once.Do(func() { close(started) })
		}
		if u&crossMark != 0 {
			return // cross arrivals are leaf events
		}
		// Endless chain: only cancellation stops this run.
		e.ScheduleFnAtDom(now+1+Cycle(u%3), int32(d), step, d, u+1)
		if u%5 == 2 {
			dst := (d + 1) % nd
			e.ScheduleFnAtDom(now+L+Cycle(u%4), int32(dst), step, dst, crossMark|u)
		}
	}
	for d := 0; d < nd; d++ {
		e.SetCurDomain(int32(d))
		e.ScheduleFnAt(Cycle(d), step, d, 0)
	}
	var period Cycle
	if observed {
		period = L
	}
	errc := make(chan error, 1)
	go func() { errc <- e.Drain(0, period, func() {}) }()
	<-started
	c.Cancel()
	return <-errc
}

// TestCancelDomainRun drives an endless domain-mode workload through
// Drain, plain ("drain") and under a periodic observer ("windowed"), and
// cancels mid-flight from another goroutine. Both must stop promptly with
// a CanceledError.
func TestCancelDomainRun(t *testing.T) {
	for _, observed := range []bool{false, true} {
		name := "drain"
		if observed {
			name = "windowed"
		}
		t.Run(name, func(t *testing.T) {
			err := cancelPingPong(t, observed)
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("Drain = %v, want *CanceledError", err)
			}
		})
	}
}
