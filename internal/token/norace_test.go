//go:build !race

package token_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
