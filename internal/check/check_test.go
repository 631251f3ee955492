package check_test

import (
	"strings"
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/check"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

func TestLedgerBookkeeping(t *testing.T) {
	l := check.NewLedger()
	l.Depart(64, 3, true)
	if tok, own := l.Inflight(64); tok != 3 || own != 1 {
		t.Fatalf("inflight = %d/%d, want 3/1", tok, own)
	}
	l.Depart(64, 1, false)
	l.Arrive(64, 3, true)
	if tok, own := l.Inflight(64); tok != 1 || own != 0 {
		t.Fatalf("inflight = %d/%d, want 1/0", tok, own)
	}
	l.Arrive(64, 1, false)
	if tok, own := l.Inflight(64); tok != 0 || own != 0 {
		t.Fatalf("inflight = %d/%d, want 0/0 (entry cleared)", tok, own)
	}
}

// broadcastRouter snoops every other of its cores cores (TokenB
// baseline), routed into its own words.
type broadcastRouter struct {
	cores int
	words []uint64
}

func (r *broadcastRouter) Route(info token.RouteInfo) (first, second []uint64) {
	if r.words == nil {
		r.words = make([]uint64, (r.cores+63)/64)
	}
	clear(r.words)
	for i := 0; i < r.cores; i++ {
		if i != info.Requester {
			r.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return r.words, nil
}

// blackholeRouter filters everything AND pairs with an unhandled MC node,
// so a transaction can never complete (liveness-test rig).
type blackholeRouter struct{}

func (blackholeRouter) Route(token.RouteInfo) (first, second []uint64) { return nil, nil }

type rig struct {
	eng   *sim.Engine
	ctrls []*token.CacheCtrl
	l2s   []*cache.Cache
	mc    *memctrl.Ctrl
	led   *check.Ledger
	p     token.Params
}

// newRig wires n cores + one MC with the in-flight ledger observing every
// controller, mirroring internal/system's checker wiring.
func newRig(t *testing.T, n int, blackhole bool) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := token.DefaultParams(n)
	led := check.NewLedger()

	coreNodes := make([]mesh.NodeID, n)
	for i := range coreNodes {
		coreNodes[i] = net.Attach(i%4, i/4, nil)
	}
	mcNode := net.Attach(0, 0, nil)
	mc := &memctrl.Ctrl{Eng: eng, Net: net, Node: mcNode, P: p, Cores: n}
	mc.Init()
	mc.Obs = led
	if !blackhole {
		net.SetHandler(mcNode, mc.Handle)
	}

	r := &rig{eng: eng, mc: mc, led: led, p: p}
	for i := 0; i < n; i++ {
		l2 := cache.New(cache.Config{Name: "L2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64, HitLatency: 10})
		c := &token.CacheCtrl{
			Eng: eng, Net: net, Node: coreNodes[i], Core: i, L2: l2, P: p,
			MCNodes: []mesh.NodeID{mcNode}, Cores: n,
		}
		if blackhole {
			c.Router = blackholeRouter{}
		} else {
			c.Router = &broadcastRouter{cores: n}
		}
		c.Obs = led
		c.Init()
		net.SetHandler(coreNodes[i], c.Handle)
		r.ctrls = append(r.ctrls, c)
		r.l2s = append(r.l2s, l2)
	}
	return r
}

// call is the completion handler the tests pass to Start: it runs the
// func() carried as the transaction's argument.
var call sim.HandlerFn = func(arg interface{}, _ uint64) { arg.(func())() }

func (r *rig) conservation() check.Invariant {
	return check.TokenConservation(r.p.TotalTokens, r.census())
}

func (r *rig) census() *check.Census {
	return check.NewCensus(r.l2s, []*memctrl.Ctrl{r.mc}, r.led)
}

func TestInvariantsHoldAfterTransactions(t *testing.T) {
	r := newRig(t, 4, false)
	// A read-share then write-invalidate sequence across cores, twice
	// (one transaction per controller at a time).
	addrs := []mem.BlockAddr{100, 228}
	for _, a := range addrs {
		r.ctrls[0].Start(a, 1, mem.PagePrivate, false, call, func() {})
		r.ctrls[1].Start(a, 1, mem.PagePrivate, false, call, func() {})
		r.eng.Run()
		r.ctrls[2].Start(a, 1, mem.PagePrivate, true, call, func() {})
		r.eng.Run()
	}

	for _, inv := range []check.Invariant{
		r.conservation(), check.SingleWriter(r.p.TotalTokens, r.census()),
	} {
		if v := inv.Check(); len(v) != 0 {
			t.Fatalf("%s violated on a clean run: %v", inv.Name, v)
		}
	}
	// The in-flight ledger must be empty at quiescence.
	for _, a := range addrs {
		if tok, own := r.led.Inflight(a); tok != 0 || own != 0 {
			t.Fatalf("block %d: %d tokens / %d owners still in flight at quiescence", a, tok, own)
		}
	}
}

func TestConservationDetectsForgedAndLostTokens(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta int16
	}{{"forged", +1}, {"lost", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, false)
			r.ctrls[0].Start(100, 1, mem.PagePrivate, true, call, func() {})
			r.eng.Run()
			b := r.l2s[0].Lookup(100)
			if b == nil {
				t.Fatal("writer line missing")
			}
			b.Tokens += tc.delta // simulated state corruption
			v := r.conservation().Check()
			if len(v) == 0 {
				t.Fatalf("%s token not detected", tc.name)
			}
			if !strings.Contains(v[0], "tokens") {
				t.Fatalf("unexpected violation text: %q", v[0])
			}
		})
	}
}

func TestSingleWriterDetectsDoubleOwner(t *testing.T) {
	r := newRig(t, 4, false)
	// A write brings the owner token into l2s[0].
	r.ctrls[0].Start(100, 1, mem.PagePrivate, true, call, func() {})
	r.eng.Run()
	// Forge a second owner copy in another cache.
	b, _, _ := r.l2s[3].Insert(100, 1)
	b.Tokens, b.Owner = 1, true
	found := false
	for _, v := range check.SingleWriter(r.p.TotalTokens, r.census()).Check() {
		if strings.Contains(v, "owner") {
			found = true
		}
	}
	if !found {
		t.Fatal("double owner not detected")
	}
}

func TestSingleWriterAllowsFullyCachedSharing(t *testing.T) {
	// Regression: all tokens residing in caches split among readers is
	// legal sharing, not a writer violation.
	r := newRig(t, 4, false)
	b0, _, _ := r.l2s[0].Insert(100, 1)
	b0.Tokens, b0.Owner = int16(r.p.TotalTokens-1), true
	b1, _, _ := r.l2s[1].Insert(100, 1)
	b1.Tokens = 1
	if v := check.SingleWriter(r.p.TotalTokens, r.census()).Check(); len(v) != 0 {
		t.Fatalf("legal reader sharing flagged: %v", v)
	}
}

func TestSingleWriterDetectsWriterWithCompany(t *testing.T) {
	r := newRig(t, 4, false)
	b0, _, _ := r.l2s[0].Insert(100, 1)
	b0.Tokens, b0.Owner = int16(r.p.TotalTokens), true // a writer...
	b1, _, _ := r.l2s[1].Insert(100, 1)
	b1.Tokens = 1 // ...plus another holder
	found := false
	for _, v := range check.SingleWriter(r.p.TotalTokens, r.census()).Check() {
		if strings.Contains(v, "writer coexists") {
			found = true
		}
	}
	if !found {
		t.Fatal("writer-with-company not detected")
	}
}

func TestTxnCompletionFlagsStuckTransaction(t *testing.T) {
	r := newRig(t, 4, true) // black hole: requests route nowhere, MC is deaf
	r.ctrls[0].Start(100, 1, mem.PagePrivate, false, call, func() {})
	r.eng.RunUntil(20000)
	inv := check.TxnCompletion(r.eng.Now, r.ctrls, 5000)
	v := inv.Check()
	if len(v) == 0 {
		t.Fatal("stuck transaction not flagged")
	}
	if !strings.Contains(v[0], "core 0") || !strings.Contains(v[0], "outstanding") {
		t.Fatalf("unexpected violation text: %q", v[0])
	}
}

func TestCheckerPeriodicAndCap(t *testing.T) {
	eng := sim.NewEngine()
	c := &check.Checker{Now: eng.Now, MaxViolations: 3}
	calls := 0
	c.Register("always-bad", func() []string { calls++; return []string{"boom"} })
	// Drive the checker every 100 cycles for 10 periods, as the machine
	// drives it at window starts.
	var tick sim.HandlerFn
	tick = func(_ interface{}, _ uint64) {
		c.CheckNow()
		if eng.Now() < 1000 {
			eng.ScheduleFn(100, tick, nil, 0)
		}
	}
	eng.ScheduleFn(100, tick, nil, 0)
	eng.Run()
	if calls != 10 {
		t.Fatalf("invariant evaluated %d times, want 10", calls)
	}
	if c.Checks != 10 {
		t.Fatalf("Checks = %d, want 10", c.Checks)
	}
	if len(c.Violations) != 3 {
		t.Fatalf("violations recorded = %d, want cap 3", len(c.Violations))
	}
	if !strings.Contains(c.Violations[0], "always-bad") {
		t.Fatalf("violation text %q lacks invariant name", c.Violations[0])
	}
	if !strings.HasPrefix(c.Violations[2], "[300] ") {
		t.Fatalf("violation %q not stamped with its check cycle 300", c.Violations[2])
	}
}
