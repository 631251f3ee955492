// Package shardatomic is a lint fixture: sync/atomic in a sim-critical
// package outside internal/sim, checked by the wallclock analyzer.
package shardatomic

import "sync/atomic"

// Atomics outside internal/sim are findings, whatever the struct is named:
// only the internal/sim package may hold a word another goroutine sets.
type Canceler struct {
	flag atomic.Uint32 // want "sync/atomic.Uint32 in a sim-critical package"
}

type tracker struct {
	hits *atomic.Uint64 // want "sync/atomic.Uint64 in a sim-critical package"
}

func count() uint64 {
	var local atomic.Uint64 // want "sync/atomic.Uint64 in a sim-critical package"
	local.Add(1)
	return local.Load()
}

var legacyWord uint64

func bumpLegacy() {
	atomic.AddUint64(&legacyWord, 1) // want "sync/atomic.AddUint64 in a sim-critical package"
}

var debugGen atomic.Uint32 //lint:wallclock debug-only generation stamp, never read by simulation code

var (
	_ = Canceler{}
	_ = tracker{}
	_ = count
	_ = bumpLegacy
	_ = &debugGen
)
