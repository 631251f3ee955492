package sim

import (
	"fmt"
	"sync/atomic"
)

// Canceler requests early termination of a running simulation from outside
// the simulation goroutine — a dead HTTP client, a CLI timeout, an admin
// abort. It is a single atomic word: Cancel may be called from any
// goroutine, any number of times, before or during the run. Engines poll it
// in Drain (every cancelPollMask+1 events), so a tripped Canceler surfaces
// as a CanceledError within microseconds of simulated work.
//
// Cancellation is a control-plane mechanism, not a simulation input: a run
// that completes without the Canceler tripping is bit-identical to a run
// with no Canceler attached, and a canceled run returns an error rather
// than a (partial, nondeterministic) result.
type Canceler struct {
	flag atomic.Uint32
}

// NewCanceler returns an untripped Canceler.
func NewCanceler() *Canceler { return &Canceler{} }

// Cancel trips the canceler. Safe from any goroutine; idempotent; nil-safe.
func (c *Canceler) Cancel() {
	if c != nil {
		c.flag.Store(1)
	}
}

// Canceled reports whether Cancel has been called. Nil-safe.
func (c *Canceler) Canceled() bool { return c != nil && c.flag.Load() != 0 }

// CanceledError reports that a run stopped because its Canceler tripped.
// The position fields describe where the engine stopped — useful for
// logging, meaningless as simulation output.
type CanceledError struct {
	Now     Cycle // simulated time at the stop
	Pending int   // events still queued on the stopping engine
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at cycle %d (%d events pending)", e.Now, e.Pending)
}
