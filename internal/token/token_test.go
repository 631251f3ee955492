package token_test

import (
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// broadcastRouter is the TokenB baseline: snoop every other core.
type broadcastRouter struct{ all []mesh.NodeID }

func (r broadcastRouter) Route(info token.RouteInfo) []mesh.NodeID {
	out := make([]mesh.NodeID, 0, len(r.all)-1)
	for _, n := range r.all {
		if n != info.CoreNode {
			out = append(out, n)
		}
	}
	return out
}

// call is the completion handler the tests pass to Start: it runs the
// func() carried as the transaction's argument.
var call sim.HandlerFn = func(arg interface{}, _ uint64) { arg.(func())() }

// emptyRouter filters everything out (forces retries/persistent fallback).
type emptyRouter struct{}

func (emptyRouter) Route(token.RouteInfo) []mesh.NodeID { return nil }

type harness struct {
	eng   *sim.Engine
	net   *mesh.Network
	ctrls []*token.CacheCtrl
	mc    *memctrl.Ctrl
	p     token.Params
}

func newHarness(t testing.TB, nCores int, router token.Router) *harness {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := token.DefaultParams(nCores)

	coreNodes := make([]mesh.NodeID, nCores)
	for i := 0; i < nCores; i++ {
		coreNodes[i] = net.Attach(i%4, i/4, nil)
	}
	mcNode := net.Attach(0, 0, nil)

	mc := &memctrl.Ctrl{Eng: eng, Net: net, Node: mcNode, P: p, AllCaches: coreNodes}
	mc.Init()
	net.SetHandler(mcNode, mc.Handle)

	h := &harness{eng: eng, net: net, mc: mc, p: p}
	for i := 0; i < nCores; i++ {
		l2 := cache.New(cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
		c := &token.CacheCtrl{
			Eng: eng, Net: net, Node: coreNodes[i], Core: i, L2: l2, P: p,
			Router: router, MCNodes: []mesh.NodeID{mcNode},
		}
		if router == nil {
			c.Router = broadcastRouter{all: coreNodes}
		}
		others := make([]mesh.NodeID, 0, nCores-1)
		for j, n := range coreNodes {
			if j != i {
				others = append(others, n)
			}
		}
		c.AllCores = others
		c.Init()
		net.SetHandler(coreNodes[i], c.Handle)
		h.ctrls = append(h.ctrls, c)
	}
	return h
}

// run drives the engine until quiescent.
func (h *harness) run() { h.eng.Run() }

// checkConservation asserts that, at quiescence, every touched block has
// exactly TotalTokens tokens and exactly one owner across caches + memory.
func (h *harness) checkConservation(t *testing.T, addrs []mem.BlockAddr) {
	t.Helper()
	for _, a := range addrs {
		tokens, owners := 0, 0
		mcTok, mcOwn := h.mc.Tokens(a)
		tokens += mcTok
		if mcOwn {
			owners++
		}
		for _, c := range h.ctrls {
			if b := c.L2.Lookup(a); b != nil {
				tokens += b.Tokens
				if b.Owner {
					owners++
				}
			}
		}
		if tokens != h.p.TotalTokens {
			t.Fatalf("block %d: %d tokens in system, want %d", a, tokens, h.p.TotalTokens)
		}
		if owners != 1 {
			t.Fatalf("block %d: %d owner tokens, want exactly 1", a, owners)
		}
	}
}

func TestColdReadFromMemory(t *testing.T) {
	h := newHarness(t, 4, nil)
	done := false
	h.ctrls[0].Start(100, 1, mem.PagePrivate, false, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("read never completed")
	}
	b := h.ctrls[0].L2.Lookup(100)
	if b == nil || b.Tokens != 1 {
		t.Fatalf("requester block = %+v", b)
	}
	if cache.StateOf(b, h.p.TotalTokens) != cache.Shared {
		t.Fatalf("state = %v, want S", cache.StateOf(b, h.p.TotalTokens))
	}
	if h.mc.Stats.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d", h.mc.Stats.DRAMReads)
	}
	h.checkConservation(t, []mem.BlockAddr{100})
}

func TestWriteThenReadCacheToCache(t *testing.T) {
	h := newHarness(t, 4, nil)
	phase := 0
	h.ctrls[0].Start(200, 1, mem.PagePrivate, true, call, func() { phase = 1 })
	h.run()
	if phase != 1 {
		t.Fatal("write never completed")
	}
	b0 := h.ctrls[0].L2.Lookup(200)
	if cache.StateOf(b0, h.p.TotalTokens) != cache.Modified {
		t.Fatalf("writer state = %v, want M", cache.StateOf(b0, h.p.TotalTokens))
	}
	dramBefore := h.mc.Stats.DRAMReads
	h.ctrls[1].Start(200, 1, mem.PagePrivate, false, call, func() { phase = 2 })
	h.run()
	if phase != 2 {
		t.Fatal("read never completed")
	}
	if h.mc.Stats.DRAMReads != dramBefore {
		t.Fatal("read of dirty block went to DRAM instead of cache-to-cache")
	}
	b1 := h.ctrls[1].L2.Lookup(200)
	if b1 == nil || b1.Tokens < 1 {
		t.Fatalf("reader block = %+v", b1)
	}
	// Writer kept the owner token and the dirty data.
	b0 = h.ctrls[0].L2.Lookup(200)
	if b0 == nil || !b0.Owner || !b0.Dirty {
		t.Fatalf("old writer lost ownership unexpectedly: %+v", b0)
	}
	h.checkConservation(t, []mem.BlockAddr{200})
}

func TestGetXInvalidatesSharers(t *testing.T) {
	h := newHarness(t, 4, nil)
	n := 0
	for i := 0; i < 3; i++ {
		h.ctrls[i].Start(300, 1, mem.PagePrivate, false, call, func() { n++ })
		h.run()
	}
	if n != 3 {
		t.Fatalf("reads completed = %d", n)
	}
	h.ctrls[3].Start(300, 1, mem.PagePrivate, true, call, func() { n++ })
	h.run()
	if n != 4 {
		t.Fatal("write never completed")
	}
	for i := 0; i < 3; i++ {
		if b := h.ctrls[i].L2.Lookup(300); b != nil {
			t.Fatalf("sharer %d not invalidated: %+v", i, b)
		}
	}
	b := h.ctrls[3].L2.Lookup(300)
	if cache.StateOf(b, h.p.TotalTokens) != cache.Modified {
		t.Fatalf("writer state = %v", cache.StateOf(b, h.p.TotalTokens))
	}
	h.checkConservation(t, []mem.BlockAddr{300})
}

func TestWriteUpgradeFromShared(t *testing.T) {
	h := newHarness(t, 4, nil)
	steps := 0
	h.ctrls[0].Start(400, 1, mem.PagePrivate, false, call, func() { steps++ })
	h.run()
	h.ctrls[1].Start(400, 1, mem.PagePrivate, false, call, func() { steps++ })
	h.run()
	h.ctrls[0].Start(400, 1, mem.PagePrivate, true, call, func() { steps++ })
	h.run()
	if steps != 3 {
		t.Fatalf("steps = %d", steps)
	}
	b := h.ctrls[0].L2.Lookup(400)
	if cache.StateOf(b, h.p.TotalTokens) != cache.Modified {
		t.Fatalf("upgrader state = %v", cache.StateOf(b, h.p.TotalTokens))
	}
	if h.ctrls[1].L2.Lookup(400) != nil {
		t.Fatal("other sharer survived the upgrade")
	}
	h.checkConservation(t, []mem.BlockAddr{400})
}

func TestEvictionWritebackRestoresMemory(t *testing.T) {
	h := newHarness(t, 2, nil)
	// L2 is 16KB/8way/64B = 32 sets. Fill one set beyond capacity with
	// writes so dirty evictions occur.
	var addrs []mem.BlockAddr
	for i := 0; i < 10; i++ {
		a := mem.BlockAddr(i * 32) // same set
		addrs = append(addrs, a)
		done := false
		h.ctrls[0].Start(a, 1, mem.PagePrivate, true, call, func() { done = true })
		h.run()
		if !done {
			t.Fatalf("write %d never completed", i)
		}
	}
	if h.ctrls[0].Stats.Writebacks == 0 {
		t.Fatal("no writebacks despite set overflow")
	}
	if h.mc.Stats.DRAMWrites == 0 {
		t.Fatal("dirty evictions did not write DRAM")
	}
	h.checkConservation(t, addrs)
}

func TestFilteredRouterFallsBackToBroadcast(t *testing.T) {
	// Core 0 holds the block M; the router filters all snoops (as an
	// over-aggressive counter-threshold would). The requester must fall
	// back to broadcast after RetriesBeforeBroadcast attempts and finish.
	h := newHarness(t, 4, emptyRouter{})
	done := false
	h.ctrls[0].Start(500, 1, mem.PagePrivate, true, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("setup write failed")
	}
	got := false
	h.ctrls[1].Start(500, 2, mem.PagePrivate, true, call, func() { got = true })
	h.run()
	if !got {
		t.Fatal("filtered request never completed via broadcast fallback")
	}
	if h.ctrls[1].Stats.Retries == 0 {
		t.Fatal("expected at least one retry")
	}
	h.checkConservation(t, []mem.BlockAddr{500})
}

func TestPersistentRequestGuaranteesProgress(t *testing.T) {
	h := newHarness(t, 4, emptyRouter{})
	// Never broadcast transiently: force the persistent path.
	for _, c := range h.ctrls {
		c.P.RetriesBeforeBroadcast = 100
		c.P.RetriesBeforePersistent = 2
	}
	done := false
	h.ctrls[0].Start(600, 1, mem.PagePrivate, true, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("setup write failed (memory responds even to empty dests)")
	}
	got := false
	h.ctrls[1].Start(600, 2, mem.PagePrivate, true, call, func() { got = true })
	h.run()
	if !got {
		t.Fatal("persistent request did not complete")
	}
	if h.ctrls[1].Stats.Persistent == 0 {
		t.Fatal("persistent path not exercised")
	}
	if h.mc.Stats.Activations == 0 {
		t.Fatal("no activation recorded at memory")
	}
	h.checkConservation(t, []mem.BlockAddr{600})
}

func TestConcurrentWritersBothComplete(t *testing.T) {
	h := newHarness(t, 4, nil)
	done := 0
	h.ctrls[0].Start(700, 1, mem.PagePrivate, true, call, func() { done++ })
	h.ctrls[1].Start(700, 1, mem.PagePrivate, true, call, func() { done++ })
	h.run()
	if done != 2 {
		t.Fatalf("completed = %d, want 2 (racing writers must both finish)", done)
	}
	h.checkConservation(t, []mem.BlockAddr{700})
}

func TestROSharedMemoryDirect(t *testing.T) {
	// memory-direct: empty core destination set, memory supplies data.
	h := newHarness(t, 4, emptyRouter{})
	done := false
	h.ctrls[0].Start(800, 1, mem.PageROShared, false, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("memory-direct read did not complete")
	}
	if h.ctrls[0].Stats.Retries != 0 {
		t.Fatal("memory-direct read needed retries")
	}
	if h.mc.Stats.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", h.mc.Stats.DRAMReads)
	}
	// Snoop cost: only the requester itself.
	if h.ctrls[0].Stats.SnoopsIssued != 1 {
		t.Fatalf("snoops issued = %d, want 1", h.ctrls[0].Stats.SnoopsIssued)
	}
	h.checkConservation(t, []mem.BlockAddr{800})
}

type fixedOracle bool

func (f fixedOracle) ROProviderAmong(mem.BlockAddr, []mesh.NodeID) bool { return bool(f) }

func TestROSharedProviderSuppliesData(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.mc.Oracle = fixedOracle(true)
	// Seed core 0 with a provider copy.
	setup := false
	h.ctrls[0].Start(900, 1, mem.PageROShared, false, call, func() { setup = true })
	h.run()
	if !setup {
		t.Fatal("setup read failed")
	}
	b := h.ctrls[0].L2.Lookup(900)
	b.Provider = true
	dram := h.mc.Stats.DRAMReads
	got := false
	h.ctrls[1].Start(900, 2, mem.PageROShared, false, call, func() { got = true })
	h.run()
	if !got {
		t.Fatal("provider-backed read did not complete")
	}
	if h.mc.Stats.DRAMReads != dram {
		t.Fatal("memory sent data although a provider existed")
	}
	if h.mc.Stats.TokenSends == 0 {
		t.Fatal("memory should have sent the token")
	}
	h.checkConservation(t, []mem.BlockAddr{900})
}

func TestTokenConservationRandomProperty(t *testing.T) {
	// Random interleavings of reads/writes from all cores; at quiescence
	// tokens and owners must be conserved for every block.
	for seed := uint64(1); seed <= 5; seed++ {
		h := newHarness(t, 8, nil)
		r := sim.NewRand(seed)
		const blocks = 24
		var addrs []mem.BlockAddr
		for i := 0; i < blocks; i++ {
			addrs = append(addrs, mem.BlockAddr(1000+i))
		}
		pending := 0
		var issue func(core int)
		ops := make([]int, 8)
		issue = func(core int) {
			if ops[core] >= 30 {
				pending--
				return
			}
			ops[core]++
			a := addrs[r.Intn(blocks)]
			write := r.Bool(0.4)
			c := h.ctrls[core]
			if b := c.L2.Lookup(a); b != nil && b.Tokens >= 1 && (!write || b.Tokens == c.P.TotalTokens) {
				// hit: silent upgrade allowed at E
				if write {
					b.Dirty = true
				}
				h.eng.Schedule(1, func() { issue(core) })
				return
			}
			c.Start(a, mem.VMID(core/2), mem.PagePrivate, write, call, func() { issue(core) })
		}
		for core := 0; core < 8; core++ {
			pending++
			core := core
			h.eng.Schedule(sim.Cycle(core), func() { issue(core) })
		}
		h.run()
		total := 0
		for _, n := range ops {
			total += n
		}
		if total != 8*30 {
			t.Fatalf("seed %d: deadlock, only %d ops completed", seed, total)
		}
		h.checkConservation(t, addrs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		h := newHarness(t, 4, nil)
		r := sim.NewRand(7)
		count := 0
		var issue func(core int)
		issue = func(core int) {
			if count >= 100 {
				return
			}
			count++
			a := mem.BlockAddr(2000 + r.Intn(16))
			h.ctrls[core].Start(a, 1, mem.PagePrivate, r.Bool(0.5), call, func() { issue(core) })
		}
		issue(0)
		h.eng.Schedule(3, func() { issue(1) })
		h.run()
		var sn uint64
		for _, c := range h.ctrls {
			sn += c.Stats.SnoopLookups
		}
		return sn, h.net.ByteHops
	}
	s1, b1 := run()
	s2, b2 := run()
	if s1 != s2 || b1 != b2 {
		t.Fatalf("nondeterministic protocol: (%d,%d) vs (%d,%d)", s1, b1, s2, b2)
	}
}
