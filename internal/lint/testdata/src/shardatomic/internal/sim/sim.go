// Package sim is a lint fixture: this directory's import path ends in
// internal/sim, so the allowlisted struct may hold atomic fields — and
// nothing else may.
package sim

import "sync/atomic"

// The allowlisted struct: an atomic word another goroutine may set.
type Canceler struct {
	flag atomic.Uint32
}

// sideChannel is NOT an allowlisted struct, even inside internal/sim.
type sideChannel struct {
	flag atomic.Bool // want "atomic field in struct sideChannel"
}

var globalEpoch atomic.Uint64 // want "atomic variable globalEpoch"

var legacyWord uint64

func bumpLegacy() {
	atomic.AddUint64(&legacyWord, 1) // want "atomic.AddUint64 call in a sim-critical package"
}

var debugGen atomic.Uint32 //lint:shardsafe debug-only generation stamp, never read by simulation code

var (
	_ = Canceler{}
	_ = sideChannel{}
	_ = bumpLegacy
)
