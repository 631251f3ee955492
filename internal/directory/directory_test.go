package directory

import (
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

type harness struct {
	eng   *sim.Engine
	net   *mesh.Network
	ctrls []*CacheCtrl
	home  *Home
}

func newHarness(t *testing.T, nCores int) *harness {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := DefaultParams()

	coreNodes := make([]mesh.NodeID, nCores)
	for i := 0; i < nCores; i++ {
		coreNodes[i] = net.Attach(i%4, i/4, nil)
	}
	homeNode := net.Attach(0, 0, nil)
	h := &Home{Eng: eng, Net: net, Node: homeNode, P: p}
	h.Init()
	net.SetHandler(homeNode, h.Handle)

	out := &harness{eng: eng, net: net, home: h}
	for i := 0; i < nCores; i++ {
		l2 := cache.New(cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
		c := &CacheCtrl{
			Eng: eng, Net: net, Node: coreNodes[i], Core: i, L2: l2, P: p,
			Tokens: nCores + 1, Homes: []mesh.NodeID{homeNode},
		}
		c.Init()
		net.SetHandler(coreNodes[i], c.Handle)
		out.ctrls = append(out.ctrls, c)
	}
	return out
}

func (h *harness) run() { h.eng.Run() }

// call is the completion handler the tests pass to Start: it runs the
// func() carried as the transaction's argument.
var call sim.HandlerFn = func(arg interface{}, _ uint64) { arg.(func())() }

func TestColdRead(t *testing.T) {
	h := newHarness(t, 4)
	done := false
	h.ctrls[0].Start(100, 1, false, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("read never completed")
	}
	b := h.ctrls[0].L2.Lookup(100)
	if b == nil || b.Tokens != 1 {
		t.Fatalf("block = %+v", b)
	}
	if h.home.State(100) != "S" || h.home.Sharers(100) != 1 {
		t.Fatalf("directory: state=%s sharers=%d", h.home.State(100), h.home.Sharers(100))
	}
	if h.home.Stats.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d", h.home.Stats.DRAMReads)
	}
}

func TestWriteThenForwardedRead(t *testing.T) {
	h := newHarness(t, 4)
	step := 0
	h.ctrls[0].Start(200, 1, true, call, func() { step = 1 })
	h.run()
	if step != 1 || h.home.State(200) != "E" {
		t.Fatalf("write failed: step=%d state=%s", step, h.home.State(200))
	}
	dram := h.home.Stats.DRAMReads
	h.ctrls[1].Start(200, 1, false, call, func() { step = 2 })
	h.run()
	if step != 2 {
		t.Fatal("forwarded read never completed")
	}
	if h.home.Stats.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", h.home.Stats.Forwards)
	}
	if h.home.Stats.DRAMReads != dram {
		t.Fatal("forwarded read should not touch DRAM")
	}
	// Old owner downgraded to S, requester S, directory Shared with both.
	b0 := h.ctrls[0].L2.Lookup(200)
	if b0 == nil || b0.Tokens != 1 || b0.Owner {
		t.Fatalf("old owner state: %+v", b0)
	}
	if h.home.State(200) != "S" || h.home.Sharers(200) != 2 {
		t.Fatalf("directory: %s/%d", h.home.State(200), h.home.Sharers(200))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := newHarness(t, 4)
	n := 0
	for i := 0; i < 3; i++ {
		h.ctrls[i].Start(300, 1, false, call, func() { n++ })
		h.run()
	}
	h.ctrls[3].Start(300, 1, true, call, func() { n++ })
	h.run()
	if n != 4 {
		t.Fatalf("completed = %d", n)
	}
	for i := 0; i < 3; i++ {
		if b := h.ctrls[i].L2.Lookup(300); b != nil && b.Tokens > 0 {
			t.Fatalf("sharer %d not invalidated", i)
		}
	}
	if h.home.Stats.Invalidates != 3 {
		t.Fatalf("invalidates = %d, want 3", h.home.Stats.Invalidates)
	}
	if h.home.State(300) != "E" {
		t.Fatalf("state = %s", h.home.State(300))
	}
}

func TestUpgradeFromShared(t *testing.T) {
	h := newHarness(t, 4)
	steps := 0
	h.ctrls[0].Start(400, 1, false, call, func() { steps++ })
	h.run()
	h.ctrls[1].Start(400, 1, false, call, func() { steps++ })
	h.run()
	h.ctrls[0].Start(400, 1, true, call, func() { steps++ })
	h.run()
	if steps != 3 {
		t.Fatalf("steps = %d", steps)
	}
	b := h.ctrls[0].L2.Lookup(400)
	if b == nil || !b.Dirty || int(b.Tokens) != h.ctrls[0].Tokens {
		t.Fatalf("upgrader state: %+v", b)
	}
	if got := h.ctrls[1].L2.Lookup(400); got != nil && got.Tokens > 0 {
		t.Fatal("other sharer survived upgrade")
	}
}

func TestConcurrentWritersSerialized(t *testing.T) {
	h := newHarness(t, 4)
	done := 0
	h.ctrls[0].Start(500, 1, true, call, func() { done++ })
	h.ctrls[1].Start(500, 1, true, call, func() { done++ })
	h.run()
	if done != 2 {
		t.Fatalf("completed = %d, want 2 (home must serialize)", done)
	}
	// Exactly one owner at the end.
	owners := 0
	for _, c := range h.ctrls {
		if b := c.L2.Lookup(500); b != nil && int(b.Tokens) == c.Tokens {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d", owners)
	}
}

func TestEvictionWriteback(t *testing.T) {
	h := newHarness(t, 2)
	// 16KB/8way/64B = 32 sets; conflict one set with writes.
	n := 0
	for i := 0; i < 10; i++ {
		a := mem.BlockAddr(i * 32)
		h.ctrls[0].Start(a, 1, true, call, func() { n++ })
		h.run()
	}
	if n != 10 {
		t.Fatalf("writes completed = %d", n)
	}
	if h.ctrls[0].Stats.Writebacks == 0 {
		t.Fatal("no writebacks")
	}
	if h.home.Stats.DRAMWrites == 0 {
		t.Fatal("dirty writebacks did not reach DRAM")
	}
	// Evicted blocks must be re-readable (home state recovered).
	done := false
	h.ctrls[1].Start(0, 1, false, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("read of written-back block never completed")
	}
}

func TestRandomStressNoDeadlock(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		h := newHarness(t, 8)
		r := sim.NewRand(seed)
		ops := make([]int, 8)
		var issue func(core int)
		issue = func(core int) {
			if ops[core] >= 40 {
				return
			}
			ops[core]++
			a := mem.BlockAddr(1000 + r.Intn(24))
			write := r.Bool(0.4)
			c := h.ctrls[core]
			if b := c.L2.Lookup(a); b != nil && b.Tokens >= 1 && (!write || int(b.Tokens) == c.Tokens) {
				if write {
					b.Dirty = true
				}
				h.eng.ScheduleFn(1, call, func() { issue(core) }, 0)
				return
			}
			c.Start(a, mem.VMID(core/2), write, call, func() { issue(core) })
		}
		for core := 0; core < 8; core++ {
			core := core
			h.eng.ScheduleFn(sim.Cycle(core), call, func() { issue(core) }, 0)
		}
		h.run()
		total := 0
		for _, n := range ops {
			total += n
		}
		if total != 8*40 {
			t.Fatalf("seed %d: deadlock, %d/%d ops", seed, total, 8*40)
		}
		// Single-writer invariant at quiescence.
		for a := mem.BlockAddr(1000); a < 1024; a++ {
			owners, sharers := 0, 0
			for _, c := range h.ctrls {
				if b := c.L2.Lookup(a); b != nil && b.Tokens > 0 {
					if int(b.Tokens) == c.Tokens {
						owners++
					} else {
						sharers++
					}
				}
			}
			if owners > 1 {
				t.Fatalf("seed %d block %d: %d owners", seed, a, owners)
			}
			if owners == 1 && sharers > 0 {
				t.Fatalf("seed %d block %d: owner plus %d sharers", seed, a, sharers)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		h := newHarness(t, 4)
		r := sim.NewRand(9)
		count := 0
		var issue func(core int)
		issue = func(core int) {
			if count >= 120 {
				return
			}
			count++
			a := mem.BlockAddr(2000 + r.Intn(12))
			c := h.ctrls[core]
			write := r.Bool(0.5)
			if b := c.L2.Lookup(a); b != nil && b.Tokens >= 1 && (!write || int(b.Tokens) == c.Tokens) {
				h.eng.ScheduleFn(1, call, func() { issue(core) }, 0)
				return
			}
			c.Start(a, 1, write, call, func() { issue(core) })
		}
		issue(0)
		h.eng.ScheduleFn(3, call, func() { issue(1) }, 0)
		h.run()
		byteHops, _, _ := h.net.TrafficTotals()
		return h.home.Stats.Lookups, byteHops
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestForwardRacesEviction(t *testing.T) {
	// Directed test for the forward/eviction race: the owner evicts while
	// a forward is in flight; the requester must still complete.
	h := newHarness(t, 2)
	done := false
	h.ctrls[0].Start(600, 1, true, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("setup write failed")
	}
	// Evict the owned block by conflict-filling its set (32 sets).
	n := 0
	for i := 1; i <= 8; i++ {
		a := mem.BlockAddr(600 + i*32)
		h.ctrls[0].Start(a, 1, true, call, func() { n++ })
		h.run()
	}
	if h.ctrls[0].L2.Lookup(600) != nil {
		t.Fatal("block 600 still resident; test setup wrong")
	}
	// The home may still believe core 0 owns it (WB processed) or not; a
	// read from core 1 must complete either way.
	got := false
	h.ctrls[1].Start(600, 1, false, call, func() { got = true })
	h.run()
	if !got {
		t.Fatal("read after owner eviction never completed")
	}
}

func TestOwnerReRequestAfterEviction(t *testing.T) {
	// The pendingReq path: the owner evicts and immediately re-requests
	// before its writeback is processed.
	h := newHarness(t, 2)
	done := 0
	h.ctrls[0].Start(700, 1, true, call, func() { done++ })
	h.run()
	for i := 1; i <= 8; i++ {
		h.ctrls[0].Start(mem.BlockAddr(700+i*32), 1, true, call, func() { done++ })
		h.run()
	}
	// Re-request the evicted block.
	h.ctrls[0].Start(700, 1, true, call, func() { done++ })
	h.run()
	if done != 10 {
		t.Fatalf("completed = %d, want 10", done)
	}
	b := h.ctrls[0].L2.Lookup(700)
	if b == nil || int(b.Tokens) != h.ctrls[0].Tokens {
		t.Fatalf("re-acquired block state: %+v", b)
	}
}

func TestUpgradeRaceLosesCleanly(t *testing.T) {
	// Two sharers race to upgrade; the home serializes them, and the loser
	// must re-acquire data (its S copy is invalidated mid-upgrade).
	h := newHarness(t, 4)
	n := 0
	h.ctrls[0].Start(800, 1, false, call, func() { n++ })
	h.run()
	h.ctrls[1].Start(800, 1, false, call, func() { n++ })
	h.run()
	h.ctrls[0].Start(800, 1, true, call, func() { n++ })
	h.ctrls[1].Start(800, 1, true, call, func() { n++ })
	h.run()
	if n != 4 {
		t.Fatalf("completed = %d, want 4", n)
	}
	owners := 0
	for _, c := range h.ctrls {
		if b := c.L2.Lookup(800); b != nil && int(b.Tokens) == c.Tokens && b.Dirty {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("owners = %d, want exactly 1", owners)
	}
}
