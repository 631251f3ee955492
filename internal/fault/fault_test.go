package fault

import (
	"strings"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

func TestPlanActive(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Fatal("nil plan active")
	}
	if (&Plan{}).Active() {
		t.Fatal("zero plan active")
	}
	for _, p := range []*Plan{
		{DropPct: 1}, {DupPct: 1}, {DelayPct: 1}, {DegradedLinks: 1},
		{Events: []Event{{Kind: EvCorruptMap}}},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v not active", p)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	good := &Plan{DropPct: 5, DupPct: 1, DelayPct: 2,
		Events: []Event{{Kind: EvMigrationStorm, Count: 4}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	for name, p := range map[string]*Plan{
		"drop>100":      {DropPct: 101},
		"negative dup":  {DupPct: -1},
		"negative max":  {DelayMax: -1},
		"bad kind":      {Events: []Event{{Kind: EventKind(99)}}},
		"negative vm":   {Events: []Event{{Kind: EvCorruptMap, VM: -1}}},
		"negative link": {DegradedLinks: -2},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// faultNet builds a 4x4 mesh with an injector attached; node 15 plays the
// home memory controller.
func faultNet(t *testing.T, plan *Plan, seed uint64) (*sim.Engine, *mesh.Network, []mesh.NodeID, *Injector) {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	ids := make([]mesh.NodeID, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			ids[y*4+x] = net.Attach(x, y, nil)
		}
	}
	in := NewInjector(plan, seed, len(ids))
	in.Attach(net, []mesh.NodeID{ids[15]})
	return eng, net, ids, in
}

func TestPersistentMessagesExempt(t *testing.T) {
	// 100% drop: every transient request dies, every persistent-protocol
	// message still arrives.
	eng, net, ids, in := faultNet(t, &Plan{DropPct: 100}, 1)
	got := map[token.Kind]int{}
	net.SetHandler(ids[5], func(p interface{}) { got[p.(*token.Msg).Kind]++ })
	for _, k := range []token.Kind{
		token.MsgGetS, token.MsgGetX,
		token.MsgPersistentReq, token.MsgPersistentActivate, token.MsgPersistentRelease, token.MsgPersistentDeactivate,
	} {
		net.Send(ids[0], ids[5], 8, &token.Msg{Kind: k, Addr: 64})
	}
	eng.Run()
	if got[token.MsgGetS] != 0 || got[token.MsgGetX] != 0 {
		t.Fatalf("transient requests survived 100%% drop: %v", got)
	}
	for _, k := range []token.Kind{token.MsgPersistentReq, token.MsgPersistentActivate, token.MsgPersistentRelease, token.MsgPersistentDeactivate} {
		if got[k] != 1 {
			t.Fatalf("persistent message %v dropped (got %v)", k, got)
		}
	}
	if in.TotalStats().Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", in.TotalStats().Dropped)
	}
}

func TestTokenMessagesBounceHome(t *testing.T) {
	// 100% drop on a Data response: never destroyed, redirected to home.
	eng, net, ids, in := faultNet(t, &Plan{DropPct: 100}, 1)
	atDst, atHome := 0, 0
	net.SetHandler(ids[5], func(interface{}) { atDst++ })
	net.SetHandler(ids[15], func(interface{}) { atHome++ })
	net.Send(ids[0], ids[5], 72, &token.Msg{Kind: token.MsgData, Addr: 64, Tokens: 3})
	net.Send(ids[0], ids[5], 16, &token.Msg{Kind: token.MsgTokens, Addr: 64, Tokens: 1})
	eng.Run()
	if atDst != 0 || atHome != 2 {
		t.Fatalf("bounce: dst=%d home=%d, want 0/2", atDst, atHome)
	}
	if in.TotalStats().Bounced != 2 || in.TotalStats().Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 bounced, 0 dropped", in.TotalStats())
	}
}

func TestDuplicateOnlyRequests(t *testing.T) {
	eng, net, ids, in := faultNet(t, &Plan{DupPct: 100}, 1)
	got := map[token.Kind]int{}
	net.SetHandler(ids[5], func(p interface{}) { got[p.(*token.Msg).Kind]++ })
	net.Send(ids[0], ids[5], 8, &token.Msg{Kind: token.MsgGetS, Addr: 64})
	net.Send(ids[0], ids[5], 72, &token.Msg{Kind: token.MsgData, Addr: 64, Tokens: 1})
	eng.Run()
	if got[token.MsgGetS] != 2 {
		t.Fatalf("GetS delivered %d times, want 2", got[token.MsgGetS])
	}
	if got[token.MsgData] != 1 {
		t.Fatalf("Data duplicated: delivered %d times — duplicating tokens forges them", got[token.MsgData])
	}
	if in.TotalStats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", in.TotalStats().Duplicated)
	}
}

func TestNonCoherencePayloadUntouched(t *testing.T) {
	eng, net, ids, in := faultNet(t, &Plan{DropPct: 100, DelayPct: 100}, 1)
	delivered := 0
	net.SetHandler(ids[5], func(interface{}) { delivered++ })
	net.Send(ids[0], ids[5], 8, "not a coherence message")
	eng.Run()
	if delivered != 1 {
		t.Fatal("non-coherence payload faulted")
	}
	if in.TotalStats().Dropped != 0 && in.TotalStats().Delayed != 0 {
		t.Fatalf("stats moved for non-coherence payload: %+v", in.TotalStats())
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() (Stats, []sim.Cycle) {
		eng, net, ids, in := faultNet(t, &Plan{Seed: 7, DropPct: 30, DupPct: 20, DelayPct: 30, DelayMax: 50}, 9)
		var arrivals []sim.Cycle
		net.SetHandler(ids[10], func(interface{}) { arrivals = append(arrivals, eng.Now()) })
		for i := 0; i < 200; i++ {
			net.Send(ids[0], ids[10], 8, &token.Msg{Kind: token.MsgGetS, Addr: mem.BlockAddr(i)})
		}
		eng.Run()
		return in.TotalStats(), arrivals
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs: %d vs %d", i, a1[i], a2[i])
		}
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Fatalf("expected all fault classes to trigger over 200 messages: %+v", s1)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvCorruptMap: "corrupt-map", EvCorruptCounter: "corrupt-counter",
		EvMigrationStorm: "migration-storm",
	} {
		if got := k.String(); !strings.Contains(got, want) {
			t.Fatalf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
