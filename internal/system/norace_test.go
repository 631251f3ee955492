//go:build !race

package system

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
