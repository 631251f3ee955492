package memctrl

import (
	"testing"

	"vsnoop/internal/mem"
)

// homed returns the block at token-table index i of the interleaved()
// controller.
func homed(i uint64) mem.BlockAddr { return mem.BlockAddr(i*4 + 1) }

// TestTokenTableChunkBoundary touches lines on both sides of a chunk
// boundary: the second chunk materializes on its first touch, and each
// line keeps its own account. The table has one regime, unjournaled, and
// the subtest is named for it.
func TestTokenTableChunkBoundary(t *testing.T) {
	t.Run("journaled=false", func(t *testing.T) {
		m, _, _ := interleaved()
		low, high := homed(chunkLines-1), homed(chunkLines)
		m.line(low).tokens = 3
		if len(m.chunks) != 1 {
			t.Fatalf("chunks = %d after touching index %d, want 1", len(m.chunks), chunkLines-1)
		}
		m.line(high).owner = false
		if len(m.chunks) != 2 {
			t.Fatalf("chunks = %d after touching index %d, want 2", len(m.chunks), chunkLines)
		}
		if tok, own, ok := m.Peek(low); !ok || tok != 3 || !own {
			t.Fatalf("line %d reads (%d, %v, %v), want (3, true, true)", low, tok, own, ok)
		}
		if tok, own, ok := m.Peek(high); !ok || tok != m.P.TotalTokens || own {
			t.Fatalf("line %d reads (%d, %v, %v), want (%d, false, true)", high, tok, own, ok, m.P.TotalTokens)
		}
	})
}

// TestForEachLineAscending materializes lines in scattered order across
// three chunks; the walk must yield exactly them, in ascending address
// order, each an address this controller homes.
func TestForEachLineAscending(t *testing.T) {
	m, _, _ := interleaved()
	want := map[mem.BlockAddr]bool{}
	for _, i := range []uint64{2*chunkLines + 5, 7, chunkLines, 0, chunkLines - 1, 2 * chunkLines} {
		m.line(homed(i))
		want[homed(i)] = true
	}
	var got []mem.BlockAddr
	m.ForEachLine(func(a mem.BlockAddr, tokens int, owner bool) {
		if tokens != m.P.TotalTokens || !owner {
			t.Errorf("line %d = (%d, %v), want the reset account", a, tokens, owner)
		}
		got = append(got, a)
	})
	if len(got) != len(want) {
		t.Fatalf("walked %d lines, want %d", len(got), len(want))
	}
	for k, a := range got {
		if !want[a] || a%4 != 1 {
			t.Fatalf("walked line %d, which was never materialized here", a)
		}
		if k > 0 && a <= got[k-1] {
			t.Fatalf("walk out of order: %v", got)
		}
	}
}

// TestPeekNeverMaterializes: Peek on a block in an untouched chunk, or on
// an untouched line of a touched chunk, reports the reset state and leaves
// the table exactly as it was.
func TestPeekNeverMaterializes(t *testing.T) {
	m, _, _ := interleaved()
	m.line(homed(3))
	for _, a := range []mem.BlockAddr{homed(4), homed(5 * chunkLines)} {
		if _, _, ok := m.Peek(a); ok {
			t.Fatalf("Peek(%d) reported an untouched line present", a)
		}
	}
	if len(m.chunks) != 1 {
		t.Fatalf("Peek grew the table to %d chunks", len(m.chunks))
	}
	n := 0
	m.ForEachLine(func(mem.BlockAddr, int, bool) { n++ })
	if n != 1 {
		t.Fatalf("%d lines present after Peeks, want 1", n)
	}
}

// TestLineAccessZeroAlloc gates a token-line access on an already-touched
// chunk, including a line's first touch, at zero allocations.
func TestLineAccessZeroAlloc(t *testing.T) {
	m, _, _ := interleaved()
	m.line(homed(0))
	i := uint64(1)
	if avg := testing.AllocsPerRun(100, func() {
		m.Tokens(homed(i))
		m.Tokens(homed(i / 2))
		i++
	}); avg != 0 {
		t.Fatalf("line access allocates %.2f times, want 0", avg)
	}
}
