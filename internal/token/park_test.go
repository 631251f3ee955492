package token_test

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// TestTokenGainPutsBack covers both sites where a controller gains tokens
// — a stray response absorbed into a resident block, and a response to its
// own transaction — with a snoop for that block parked and due later: the
// gain must put the delivery back into the queue, withdrawing its parked
// count, so the real snoop fires at its own (at, key).
func TestTokenGainPutsBack(t *testing.T) {
	t.Run("stray", func(t *testing.T) {
		h := newHarness(t, 2, nil)
		c := h.ctrls[0]
		el := c.Parker(false)
		a := mem.BlockAddr(5)
		c.L2.Insert(a, 1) // resident with no tokens
		getS := &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[1].Node}
		if !el(h.eng.Now()+50, h.eng.NextKey(), 0, getS) {
			t.Fatal("snoop to a block without tokens was not parked")
		}
		c.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[1].Node, Tokens: 1})
		if h.eng.Parked() != 0 || h.eng.Pending() != 1 || c.Stats.SnoopLookups != 0 {
			t.Fatalf("after the gain: %d parked, %d pending, %d lookups; want 0, 1 (put back), 0",
				h.eng.Parked(), h.eng.Pending(), c.Stats.SnoopLookups)
		}
		h.run()
		if c.Stats.SnoopLookups != 1 || h.eng.Fired() != 1 {
			t.Fatalf("%d lookups, %d events fired; want the put-back snoop once", c.Stats.SnoopLookups, h.eng.Fired())
		}
	})
	t.Run("transaction", func(t *testing.T) {
		h := newHarness(t, 2, nil)
		c := h.ctrls[0]
		el := c.Parker(false)
		a := mem.BlockAddr(6)
		done := 0
		c.Start(a, 1, mem.PagePrivate, false, func(interface{}, uint64) { done++ }, nil)
		// Core 1's GetX, due long after memory's reply fills core 0.
		getX := &token.Msg{Kind: token.MsgGetX, Addr: a, Src: h.ctrls[1].Node, Write: true}
		if !el(h.eng.Now()+5000, h.eng.NextKey(), 0, getX) {
			t.Fatal("snoop to a block without tokens was not parked")
		}
		h.run()
		if done != 1 || h.eng.Parked() != 0 {
			t.Fatalf("%d transactions done, %d still parked; want 1, 0", done, h.eng.Parked())
		}
		if b := c.L2.Lookup(a); b != nil && b.Tokens > 0 {
			t.Fatalf("core 0 kept %d tokens: the put-back GetX never ran", b.Tokens)
		}
		h.checkConservation(t, []mem.BlockAddr{a})
	})
}

// TestParkZeroAlloc gates snoop parking at zero allocations in steady
// state: parking deliveries, pruning the ones that passed once the list is
// full, and putting deliveries back into the queue on a token gain all
// reuse the controller's list and the engine's node pool. Each iteration
// parks three snoops for a block that gains a token (put back and fired)
// and three for one that never does (pruned later), and checks the counts
// the parked and put-back deliveries leave behind; DropParked then undoes
// exactly the deliveries not yet due.
func TestParkZeroAlloc(t *testing.T) {
	h := newHarness(t, 2, nil)
	c := h.ctrls[0]
	el := c.Parker(false)
	gained, idle := mem.BlockAddr(7), mem.BlockAddr(9)
	blk, _, _ := c.L2.Insert(gained, 1) // resident, no tokens: a stray token lands here
	src := h.ctrls[1].Node
	getS := &token.Msg{Kind: token.MsgGetS, Addr: gained, Src: src}
	idleS := &token.Msg{Kind: token.MsgGetS, Addr: idle, Src: src}
	tok := &token.Msg{Kind: token.MsgTokens, Addr: gained, Src: src, Tokens: 1}
	iter := func() {
		now := h.eng.Now()
		lookups, fired := c.Stats.SnoopLookups, h.eng.Fired()
		for i := sim.Cycle(0); i < 3; i++ {
			if !el(now+20+i, h.eng.NextKey(), 0, getS) || !el(now+20+i, h.eng.NextKey(), 0, idleS) {
				t.Fatal("a snoop to a block without tokens was not parked")
			}
		}
		c.Handle(tok) // the token gain: puts getS's three deliveries back
		h.eng.RunUntil(now + 100)
		blk.Tokens = 0
		if got := c.Stats.SnoopLookups - lookups; got != 6 {
			t.Fatalf("%d snoop lookups per iteration, want 6", got)
		}
		if got := h.eng.Fired() - fired; got != 6 {
			t.Fatalf("%d events fired per iteration, want 6 (3 parked, 3 put back)", got)
		}
	}
	iter() // grows the engine's node pool
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Fatalf("parking allocates %.2f times per iteration, want 0", avg)
	}
	// An early exit drops what has not passed, and only that: the counts
	// return to where they were before the two deliveries were parked.
	lookups, parked := c.Stats.SnoopLookups, h.eng.Parked()
	now := h.eng.Now()
	el(now+5, h.eng.NextKey(), 0, idleS)
	el(now+6, h.eng.NextKey(), 0, idleS)
	if got := c.DropParked(); got != 2 {
		t.Fatalf("DropParked dropped %d deliveries, want the 2 not yet due", got)
	}
	if c.Stats.SnoopLookups != lookups || h.eng.Parked() != parked {
		t.Fatalf("after DropParked: %d lookups, %d parked; want %d, %d",
			c.Stats.SnoopLookups, h.eng.Parked(), lookups, parked)
	}
}
