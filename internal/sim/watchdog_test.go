package sim

import (
	"errors"
	"testing"
)

func TestRunBoundedStepsCompletes(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := Cycle(1); i <= 5; i++ {
		e.ScheduleFn(i, call, func() { fired++ }, 0)
	}
	if err := e.RunBoundedSteps(10); err != nil {
		t.Fatalf("RunBoundedSteps: %v", err)
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
	err := e.RunBoundedSteps(100)
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
	if err := e.RunBoundedSteps(2); err != nil {
		t.Fatalf("RunBoundedSteps at exact bound: %v", err)
	}
}

func TestWatchdogFiresWithoutProgress(t *testing.T) {
	e := NewEngine()
	e.SetProgressLimit(50)
	var tick func()
	tick = func() { e.ScheduleFn(1, call, tick, 0) }
	e.ScheduleFn(1, call, tick, 0)
	var err error
	for {
		var ok bool
		ok, err = e.StepChecked()
		if err != nil || !ok {
			break
		}
	}
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
	for {
		ok, err := e.StepChecked()
		if err != nil {
			t.Fatalf("watchdog fired despite regular progress: %v", err)
		}
		if !ok {
			break
		}
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
	for {
		ok, err := e.StepChecked()
		if err != nil {
			t.Fatalf("disarmed watchdog fired: %v", err)
		}
		if !ok {
			break
		}
	}
}
