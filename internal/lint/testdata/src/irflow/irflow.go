// Package irflow is a lint fixture for the dataflow-IR corners of
// maprange: the verified key-harvest exemption and its near misses. Every
// case turns on flow — the loop's join block, what runs between the loop
// and the sort — rather than on syntax shape.
package irflow

import "sort"

// ---------------------------------------------------------------------------
// Verified harvest: collect-then-sort over map keys is order-free and
// exempt; every deviation from the proven shape keeps the finding.

func harvestOK(m map[int]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func harvestComparatorOK(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func harvestValueUse(m map[int]int) int {
	sum := 0
	for _, v := range m { // want "nondeterministic order"
		sum += v
	}
	return sum
}

func harvestNoSort(m map[int]int) []int {
	var ks []int
	for k := range m { // want "nondeterministic order"
		ks = append(ks, k)
	}
	return ks
}

func harvestUseBeforeSort(m map[int]int) []int {
	var ks []int
	n := 0
	for k := range m { // want "nondeterministic order"
		ks = append(ks, k)
	}
	n = len(ks) // anything between loop and sort voids the proof
	sort.Ints(ks)
	return ks[:n]
}

func harvestExtraStmt(m map[int]int) []int {
	var ks []int
	for k := range m { // want "nondeterministic order"
		ks = append(ks, k)
		ks = append(ks, k+1)
	}
	sort.Ints(ks)
	return ks
}
