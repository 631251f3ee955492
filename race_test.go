//go:build race

package vsnoop

// raceEnabled reports a -race build. The race detector's instrumentation
// changes allocation counts, so allocation gates do not apply under it.
const raceEnabled = true
