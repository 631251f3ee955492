package check

import "vsnoop/internal/mem"

// LedgerAddrs returns the blocks the ledger holds an entry for, in any
// order: the ledger's share of the reference checker's block universe.
func LedgerAddrs(l *Ledger) []mem.BlockAddr {
	out := make([]mem.BlockAddr, 0, len(l.inflight))
	for a := range l.inflight {
		out = append(out, a)
	}
	return out
}

// RadixSort is the census's key sort.
var RadixSort = radixSort
