//go:build race

package token_test

// raceEnabled reports a -race build. A race-instrumented run is slow
// enough that the runtime's own background work (the scavenger re-arming
// its timer) can allocate inside an allocation window, so the heap-byte
// gate does not apply under it.
const raceEnabled = true
