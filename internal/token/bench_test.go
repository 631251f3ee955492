package token_test

import (
	"runtime"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// staticRouter returns a precomputed destination set per requester, so
// routing allocates nothing.
type staticRouter struct{ dests [][]uint64 }

func (r staticRouter) Route(info token.RouteInfo) (first, second []uint64) {
	return r.dests[info.Requester], nil
}

// useStaticRouter replaces every controller's router with a broadcast
// staticRouter.
func (h *harness) useStaticRouter() {
	r := staticRouter{dests: make([][]uint64, len(h.ctrls))}
	for i, c := range h.ctrls {
		r.dests[i] = h.othersOf(i)
		c.Router = r
	}
}

// othersOf returns the words of every core of h but core i.
func (h *harness) othersOf(i int) []uint64 {
	var ids []mesh.NodeID
	for j, c := range h.ctrls {
		if j != i {
			ids = append(ids, c.Node)
		}
	}
	return mesh.Words(ids...)
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
	msgs := make([]*token.Msg, blocks)
	for a := range msgs {
		addr := mem.BlockAddr(a)
		if !hit {
			addr += mem.BlockAddr(blocks)
		}
		msgs[a] = &token.Msg{Kind: token.MsgGetS, Addr: addr, Src: h.ctrls[1].Node}
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

// TestMissTransactionAllocs gates whole coherence transactions, from Start
// to the completion handler firing, at zero heap bytes: every request and
// response is carved from its sender's Msg slab, whose slots go back on a
// free list once their last delivery is handled, and the route lands in the
// controller's reused destination buffer. After warm-up (event queue,
// free lists, memory table chunk), missRuns iterations must not move
// runtime.MemStats.TotalAlloc at all, so a slab that stopped reusing slots
// fails here at its first chunk refill. The cases cover a read and a write
// served from memory, and a read served by a remote owner's snoop hit
// through respond.
func TestMissTransactionAllocs(t *testing.T) {
	const warmRuns, missRuns = 64, 1024
	fn := func(arg interface{}, _ uint64) { *arg.(*int)++ }
	cases := []struct {
		name string
		// miss runs one measured iteration on fresh block a.
		miss func(h *harness, a mem.BlockAddr, done *int)
		// txns is the number of transactions one iteration completes.
		txns int
		// dramReadsPerIter is memory's DRAM reads per iteration.
		dramReadsPerIter uint64
	}{
		{name: "read from memory", txns: 1, dramReadsPerIter: 1,
			miss: func(h *harness, a mem.BlockAddr, done *int) {
				h.ctrls[0].Start(a, 1, mem.PagePrivate, false, fn, done)
				h.run()
			}},
		{name: "write from memory", txns: 1, dramReadsPerIter: 1,
			miss: func(h *harness, a mem.BlockAddr, done *int) {
				h.ctrls[0].Start(a, 1, mem.PagePrivate, true, fn, done)
				h.run()
			}},
		{name: "read from remote owner", txns: 2, dramReadsPerIter: 1,
			miss: func(h *harness, a mem.BlockAddr, done *int) {
				// Core 1's write leaves it owning every token, so core 0's
				// read is answered by core 1's respond, not by memory.
				h.ctrls[1].Start(a, 1, mem.PagePrivate, true, fn, done)
				h.run()
				h.ctrls[0].Start(a, 1, mem.PagePrivate, false, fn, done)
				h.run()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 4, nil)
			h.useStaticRouter()
			done := 0
			a := mem.BlockAddr(1000)
			iter := func() {
				tc.miss(h, a, &done)
				a++
			}
			for i := 0; i < warmRuns; i++ {
				iter()
			}
			// As in testing.AllocsPerRun: one P and a fresh GC cycle, so
			// no collection's own bookkeeping lands in the window.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < missRuns; i++ {
				iter()
			}
			runtime.ReadMemStats(&after)
			iters := warmRuns + missRuns
			if done != iters*tc.txns {
				t.Fatalf("%d of %d transactions completed", done, iters*tc.txns)
			}
			if got, want := h.mc.Stats.DRAMReads, uint64(iters)*tc.dramReadsPerIter; got != want {
				t.Fatalf("memory served %d DRAM reads, want %d", got, want)
			}
			// Under -race the runtime's scavenger goroutine can allocate
			// 32 bytes in the window (runtime.(*timers).addHeap, re-arming
			// its sleep timer); the non-race run holds the gate.
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes != 0 && !raceEnabled {
				t.Fatalf("%d transactions allocated %d heap bytes, want 0", missRuns*tc.txns, bytes)
			}
		})
	}
}

// BenchmarkParkedMulticast measures one snoop multicast with parking on
// in which every delivery is parked: core 0 of the 16-core quadrant
// harness sends a GetS to the other 15 cores, none of which holds the
// block (begin, the mesh multicast with the keep mask, end). The three
// deliveries inside core 0's quadrant are listed, the other twelve
// derived. Each iteration then moves the clock past the deliveries, so the
// record retires at the next multicast.
func BenchmarkParkedMulticast(b *testing.B) {
	h, _ := newQuadHarness(b, false)
	c := h.ctrls[0]
	dests := h.othersOf(0)
	m := &token.Msg{Kind: token.MsgGetS, Addr: 42, Src: c.Node}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, parked := c.Multicast(dests, m); parked != 15 {
			b.Fatalf("%d of 15 deliveries parked", parked)
		}
		h.eng.RunUntil(h.eng.Now() + 64)
	}
}
