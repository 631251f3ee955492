// Package stalewaiver is a lint fixture for stale-waiver detection: a
// well-formed waiver that suppresses at least one finding is a documented
// judgment call; one that suppresses nothing is itself a finding, so
// waivers cannot outlive the problem they were written for.
package stalewaiver

// liveSameLine carries a waiver on the offending line: used, no findings.
func liveSameLine(m map[int]int) int {
	sum := 0
	for _, v := range m { //lint:ordered commutative sum, order cannot be observed
		sum += v
	}
	return sum
}

// liveLineAbove carries the waiver on the line above: also used.
func liveLineAbove(m map[int]int) int {
	n := 0
	//lint:ordered counting elements, order cannot be observed
	for range m {
		n++
	}
	return n
}

// staleOrdered sits on a line with nothing to suppress.
func staleOrdered() int {
	x := 1 //lint:ordered nothing nondeterministic here // want "stale waiver //lint:ordered suppresses no findings"
	return x
}

// staleWallclock is stale for a different analyzer: wallclock runs, finds
// nothing here (no clock, environment or global rand is read), so the
// waiver is dead weight.
func staleWallclock() []int {
	var s []int //lint:wallclock leftover note from a deleted time.Now read // want "stale waiver //lint:wallclock suppresses no findings"
	return s
}
