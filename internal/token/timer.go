package token

import "vsnoop/internal/sim"

// Cancelled retry timeouts.
//
// Every transient request arms a retry timeout (armTimeout). timeoutFn does
// something only while the transaction it was armed for is still open: it
// returns at once unless cur is set and cur.TID is the TID it carries. TIDs
// are unique per controller (tidSeq only grows), and complete clears cur, so
// once a transaction completes its pending timeout can only fire as a no-op.
// With cancellation on, complete takes that timeout out of the queue
// (sim.Engine.CancelTimer): the engine counts it as fired, so EventsFired is
// unchanged, but it never runs.
//
// A cancelled timeout is counted when it is cancelled, not when it would
// have fired. A run that stops early would never have fired the ones due
// after its last event, so DropCancelled withdraws those counts. The
// controller keeps the cancelled timers in a short list, pruned of the ones
// that have passed, for that purpose; with at most one open transaction per
// controller, only the few completed within one timeout period are ahead.
// Passed is exact for a timeout: it was queued cycles before it was due, so
// had it stayed queued, it would have fired before any later (at, key).

// CancelTimeouts turns on retry-timeout cancellation. It has parking's
// eligibility and one more condition: no invariant checker. The checker
// sweeps at window starts, and the last timeouts of a run, due after every
// other event, can start windows of their own, so cancelling them could
// change the sweep count.
//
// shadow selects a checking mode for tests: every timeout stays a real
// event, and each one a completion would have cancelled is checked when it
// fires to be a no-op (TimeoutShadowStats).
func (c *CacheCtrl) CancelTimeouts(shadow bool) {
	c.cancelTimers = true
	c.shadowTimers = shadow
}

// cancelTimeout runs when the open transaction completes, with cancellation
// on: it cancels the pending timeout, or in shadow mode records the one it
// would have cancelled for the check in shadowTimeout.
func (c *CacheCtrl) cancelTimeout() {
	t := c.timer
	c.timer = sim.Timer{}
	if c.shadowTimers {
		if !c.Eng.TimerPending(t) {
			return
		}
	} else if !c.Eng.CancelTimer(t) {
		return
	}
	if len(c.cancelled) == cap(c.cancelled) {
		c.cancelled = keepAhead(c.Eng, c.cancelled)
	}
	c.cancelled = append(c.cancelled, t)
}

// timersAhead returns how many timers of l have not passed eng's position:
// they were counted as fired, though their events would fire only later.
func timersAhead(eng *sim.Engine, l []sim.Timer) uint64 {
	var n uint64
	for _, t := range l {
		if !eng.Passed(t.At(), t.Key()) {
			n++
		}
	}
	return n
}

// keepAhead moves the timers of l that have not passed eng's position to
// its front, in order, and returns them: the passed ones are done.
func keepAhead(eng *sim.Engine, l []sim.Timer) []sim.Timer {
	keep := l[:0]
	for _, t := range l {
		if !eng.Passed(t.At(), t.Key()) {
			keep = append(keep, t)
		}
	}
	return keep
}

// TimeoutsAhead returns how many cancelled timeouts have not passed the
// engine's position: counted as fired, though they would fire only later.
// In shadow mode it counts the timeouts cancellation would have cancelled
// and that have not fired yet.
func (c *CacheCtrl) TimeoutsAhead() uint64 { return timersAhead(c.Eng, c.cancelled) }

// DropCancelled withdraws the fired-event counts of every cancelled timeout
// that has not passed, for a run that stopped early: those events would
// never have fired. It returns how many it dropped. In shadow mode nothing
// was counted, so nothing is dropped.
func (c *CacheCtrl) DropCancelled() uint64 {
	if c.shadowTimers {
		return 0
	}
	n := c.TimeoutsAhead()
	for i := uint64(0); i < n; i++ {
		c.Eng.Uncancel()
	}
	c.cancelled = c.cancelled[:0]
	return n
}

// shadowTimeout checks, in shadow mode, a timeout firing for TID tid: if
// cancelTimeout recorded it, it must be a no-op.
func (c *CacheCtrl) shadowTimeout(tid uint64) {
	now, key := c.Eng.Now(), c.Eng.CurKey()
	for i, t := range c.cancelled {
		if t.At() != now || t.Key() != key {
			continue
		}
		c.timerChecked++
		if c.cur != nil && c.cur.TID == tid && !c.cur.completed {
			c.timerViolations++
		}
		last := len(c.cancelled) - 1
		c.cancelled[i] = c.cancelled[last]
		c.cancelled = c.cancelled[:last]
		return
	}
}

// TimeoutShadowStats returns, in shadow mode, how many timeouts
// cancellation would have cancelled were checked when they fired, and how
// many of those were not no-ops.
func (c *CacheCtrl) TimeoutShadowStats() (checked, violations uint64) {
	return c.timerChecked, c.timerViolations
}
