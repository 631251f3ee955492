// Package servescope is a lint fixture for the deterministic-only package
// class (the serving tier): goroutines, channels, mutexes, atomics, and
// package-level state are all legitimate here — the atomic confinement does
// not apply — but map iteration and ambient inputs (wall clock, env,
// global rand) are still forbidden, because memoization and journal replay
// depend on deterministic behavior around the simulator.
package servescope

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// metrics-style counters: atomics on an arbitrary struct, which wallclock
// would confine to internal/sim in a critical package. Not flagged under
// deterministic-only scoping.
type counters struct {
	accepted atomic.Uint64
	shed     atomic.Uint64
}

var stats counters // package-level mutable state: fine here

// pool is a worker pool: goroutine launches, channel sends/receives, and a
// mutex — the concurrency sim code must not hold, legitimate here.
type pool struct {
	tasks chan func()
	mu    sync.Mutex
	done  bool
	wg    sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{tasks: make(chan func(), 8)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
				stats.accepted.Add(1)
			}
		}()
	}
	return p
}

func (p *pool) trySubmit(t func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	select {
	case p.tasks <- t:
		return true
	default:
		stats.shed.Add(1)
		return false
	}
}

// lookups over a map by key are fine; only iteration is order-dependent.
func outcome(states map[string]string, hash string) string {
	return states[hash]
}

// renderStates iterates a map straight into output — exactly the bug the
// deterministic-only class exists to catch in the serving tier.
func renderStates(states map[string]string) []string {
	var out []string
	for h, s := range states { // want "iteration over map states has nondeterministic order"
		out = append(out, h+"="+s)
	}
	return out
}

// stampJob reads the wall clock instead of the injected serve clock.
func stampJob() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

// dataDir reads ambient configuration instead of Options.
func dataDir() string {
	return os.Getenv("VSNOOP_DATA") // want "os.Getenv reads the environment"
}

var _ = newPool
var _ = (*pool).trySubmit
var _ = outcome
var _ = renderStates
var _ = stampJob
var _ = dataDir
