package sim

import (
	"errors"
	"testing"
)

// The TestRunBoundedSteps tests pin Drain's step budget: a run that fits
// in it drains, one that does not fires exactly the budget and stops with
// a StepLimitError, and a budget equal to the event count is completion.

func TestRunBoundedStepsCompletes(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := Cycle(1); i <= 5; i++ {
		e.ScheduleFn(i, call, func() { fired++ }, 0)
	}
	if err := e.Drain(10, 0, nil); err != nil {
		t.Fatalf("Drain(10): %v", err)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

func TestRunBoundedStepsLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	// A self-perpetuating event chain that never drains.
	var tick func()
	tick = func() { fired++; e.ScheduleFn(1, call, tick, 0) }
	e.ScheduleFn(1, call, tick, 0)
	err := e.Drain(100, 0, nil)
	var sl *StepLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("err = %v, want StepLimitError", err)
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want exactly the 100-step bound", fired)
	}
	if sl.Limit != 100 || sl.Pending == 0 {
		t.Fatalf("StepLimitError = %+v, want Limit 100 and pending work", sl)
	}
}

func TestRunBoundedStepsExactFinish(t *testing.T) {
	e := NewEngine()
	e.ScheduleFn(1, call, func() {}, 0)
	e.ScheduleFn(2, call, func() {}, 0)
	// Bound equals the event count: the queue drains on the last allowed
	// step, which is completion, not a limit hit.
	if err := e.Drain(2, 0, nil); err != nil {
		t.Fatalf("Drain at exact bound: %v", err)
	}
}

func TestWatchdogFiresWithoutProgress(t *testing.T) {
	e := NewEngine()
	e.SetProgressLimit(50)
	var tick func()
	tick = func() { e.ScheduleFn(1, call, tick, 0) }
	e.ScheduleFn(1, call, tick, 0)
	err := e.Drain(0, 0, nil)
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want NoProgressError", err)
	}
	if np.Limit != 50 {
		t.Fatalf("NoProgressError.Limit = %d, want 50", np.Limit)
	}
}

func TestWatchdogResetByProgress(t *testing.T) {
	e := NewEngine()
	e.SetProgressLimit(50)
	steps := 0
	var tick func()
	tick = func() {
		steps++
		if steps%10 == 0 {
			e.Progress() // simulated forward progress every 10 events
		}
		if steps < 500 {
			e.ScheduleFn(1, call, tick, 0)
		}
	}
	e.ScheduleFn(1, call, tick, 0)
	if err := e.Drain(0, 0, nil); err != nil {
		t.Fatalf("watchdog fired despite regular progress: %v", err)
	}
	if steps != 500 {
		t.Fatalf("steps = %d, want 500", steps)
	}
}

func TestWatchdogDisarm(t *testing.T) {
	e := NewEngine()
	e.SetProgressLimit(10)
	e.SetProgressLimit(0) // disarm
	steps := 0
	var tick func()
	tick = func() {
		steps++
		if steps < 100 {
			e.ScheduleFn(1, call, tick, 0)
		}
	}
	e.ScheduleFn(1, call, tick, 0)
	if err := e.Drain(0, 0, nil); err != nil {
		t.Fatalf("disarmed watchdog fired: %v", err)
	}
}
