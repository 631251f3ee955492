package memctrl

import (
	"math"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/token"
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
		l := m.line(low)
		*l = mkLine(3, l.owner())
		if len(m.chunks) != 1 {
			t.Fatalf("chunks = %d after touching index %d, want 1", len(m.chunks), chunkLines-1)
		}
		l = m.line(high)
		*l = mkLine(l.tokens(), false)
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

// TestLineEncodingRoundTrip decodes every account a line can hold, up to
// the math.MaxInt16 tokens system.Config.Validate allows, as it was
// encoded, and keeps each distinct from the reset state.
func TestLineEncodingRoundTrip(t *testing.T) {
	if line(0).present() {
		t.Fatal("the zero word reads as a present line")
	}
	for tokens := 0; tokens <= math.MaxInt16; tokens++ {
		for _, owner := range []bool{false, true} {
			if owner && tokens == 0 {
				continue // the owner token is one of the tokens
			}
			l := mkLine(tokens, owner)
			if !l.present() || l.tokens() != tokens || l.owner() != owner {
				t.Fatalf("(%d, %v) reads back as (%d, %v, present %v)",
					tokens, owner, l.tokens(), l.owner(), l.present())
			}
		}
	}
}

// TestLargestAccountRoundTrip runs a controller at the largest token count
// system.Config.Validate accepts: the reset line materializes as every
// token with the owner token, and the account survives a GetX that takes it
// all and the writeback that returns it.
func TestLargestAccountRoundTrip(t *testing.T) {
	r := newRig(t)
	r.p.TotalTokens = math.MaxInt16
	r.mc.P.TotalTokens = math.MaxInt16
	if tok, own := r.mc.Tokens(70); tok != math.MaxInt16 || !own {
		t.Fatalf("reset line reads (%d, %v), want (%d, true)", tok, own, math.MaxInt16)
	}
	r.send(token.Msg{Kind: token.MsgGetX, Addr: 70, Write: true})
	if tok, own, ok := r.mc.Peek(70); !ok || tok != 0 || own {
		t.Fatalf("after GetX: (%d, %v, %v), want (0, false, true)", tok, own, ok)
	}
	r.send(token.Msg{Kind: token.MsgWBData, Addr: 70,
		Tokens: math.MaxInt16, Owner: true, Dirty: true, Data: true})
	if tok, own, ok := r.mc.Peek(70); !ok || tok != math.MaxInt16 || !own {
		t.Fatalf("after writeback: (%d, %v, %v), want (%d, true, true)", tok, own, ok, math.MaxInt16)
	}
	if got := r.got[0]; got.Tokens != math.MaxInt16 || !got.Owner {
		t.Fatalf("GetX response carried (%d, %v), want (%d, true)", got.Tokens, got.Owner, math.MaxInt16)
	}
}
