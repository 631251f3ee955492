//go:build !race

package vsnoop

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
