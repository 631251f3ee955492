// Package shardatomic is a lint fixture: sync/atomic outside internal/sim.
// The struct below reuses an allowlisted NAME — the allowlist must still
// reject it, because only the internal/sim package may hold protocol state.
package shardatomic

import "sync/atomic"

type Canceler struct {
	flag atomic.Uint32 // want "atomic field in struct Canceler"
}

type tracker struct {
	hits *atomic.Uint64 // want "atomic field in struct tracker"
}

func count() uint64 {
	var local atomic.Uint64 // want "atomic variable local"
	local.Add(1)
	return local.Load()
}

var (
	_ = Canceler{}
	_ = tracker{}
	_ = count
)
