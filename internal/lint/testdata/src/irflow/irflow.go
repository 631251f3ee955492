// Package irflow is a lint fixture for the flow corners of maprange: a
// collect-then-sort key harvest and its near misses. A dataflow check
// could prove the exact harvest order-free, but maprange is a plain type
// check, so every map range here is a finding; an order-free loop carries
// a //lint:ordered waiver that says why instead.
package irflow

import "sort"

// ---------------------------------------------------------------------------
// Harvests: collect-then-sort over map keys is order-free, but nothing
// exempts it; its near misses are findings for the same reason.

func harvestOK(m map[int]int) []int {
	var ks []int
	for k := range m { // want "nondeterministic order"
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func harvestComparatorOK(m map[string]bool) []string {
	var ks []string
	for k := range m { // want "nondeterministic order"
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
	n = len(ks) // observes the harvest before the sort
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
