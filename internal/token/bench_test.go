package token_test

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// staticRouter returns a precomputed destination set per requester, so
// routing allocates nothing.
type staticRouter struct{ dests [][]mesh.NodeID }

func (r staticRouter) Route(info token.RouteInfo) []mesh.NodeID { return r.dests[info.Requester] }

// useStaticRouter replaces every controller's router with a broadcast
// staticRouter.
func (h *harness) useStaticRouter() {
	r := staticRouter{dests: make([][]mesh.NodeID, len(h.ctrls))}
	for i, c := range h.ctrls {
		r.dests[i] = c.AllCores
		c.Router = r
	}
}

// benchSnoop delivers GetS snoops from core 1 to core 0's controller
// through Handle. Core 0's L2 is full of shared (one-token, non-owner)
// copies, the most common snooped state: a hit changes nothing and sends
// nothing, so the loop measures the request path and its tag lookup.
func benchSnoop(b *testing.B, hit bool) {
	h := newHarness(b, 2, nil)
	c := h.ctrls[0]
	blocks := 256 // the harness L2's capacity
	for a := 0; a < blocks; a++ {
		blk, _, _ := c.L2.Insert(mem.BlockAddr(a), 1)
		blk.Tokens = 1
	}
	msgs := make([]interface{}, blocks)
	for a := range msgs {
		addr := mem.BlockAddr(a)
		if !hit {
			addr += mem.BlockAddr(blocks)
		}
		msgs[a] = token.Msg{Kind: token.MsgGetS, Addr: addr, Src: h.ctrls[1].Node}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Handle(msgs[i&(blocks-1)])
	}
	if c.Stats.SnoopLookups != uint64(b.N) {
		b.Fatalf("%d snoop lookups for %d requests", c.Stats.SnoopLookups, b.N)
	}
}

func BenchmarkSnoopHit(b *testing.B)  { benchSnoop(b, true) }
func BenchmarkSnoopMiss(b *testing.B) { benchSnoop(b, false) }

// TestMissTransactionAllocs gates a whole L2-miss transaction, from Start
// to the completion handler firing: a read served from memory allocates
// exactly its two deliberate Msg boxings (the request multicast's shared
// payload and memory's data response), so a per-miss closure or any other
// per-transaction allocation fails it.
func TestMissTransactionAllocs(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.useStaticRouter()
	c := h.ctrls[0]
	done := 0
	fn := func(arg interface{}, _ uint64) { *arg.(*int)++ }
	a := mem.BlockAddr(1000)
	miss := func() {
		c.Start(a, 1, mem.PagePrivate, false, fn, &done)
		h.run()
		a++
	}
	miss() // grows the event heap and materializes the memory table chunk
	const runs = 100
	avg := testing.AllocsPerRun(runs, miss)
	if done != runs+2 {
		t.Fatalf("%d of %d transactions completed", done, runs+2)
	}
	if avg != 2 {
		t.Fatalf("an L2 miss allocates %.2f times, want exactly 2 (the request and response Msg boxings)", avg)
	}
}
