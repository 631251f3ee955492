package memctrl

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// rig wires one memory controller to a recording stub endpoint.
type rig struct {
	eng  *sim.Engine
	net  *mesh.Network
	mc   *Ctrl
	req  mesh.NodeID
	got  []token.Msg
	p    token.Params
	node mesh.NodeID
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	r := &rig{eng: eng, net: net, p: token.DefaultParams(4)}
	r.req = net.Attach(3, 3, func(p interface{}) { r.got = append(r.got, *p.(*token.Msg)) })
	r.node = net.Attach(0, 0, nil)
	r.mc = &Ctrl{Eng: eng, Net: net, Node: r.node, P: r.p, Cores: 1}
	r.mc.Init()
	net.SetHandler(r.node, r.mc.Handle)
	return r
}

func (r *rig) send(msg token.Msg) {
	msg.Src = r.req
	r.net.Send(r.req, r.node, r.p.CtrlBytes, &msg)
	r.eng.Run()
}

func TestGetSFromCleanMemory(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 10})
	if len(r.got) != 1 {
		t.Fatalf("responses = %d", len(r.got))
	}
	resp := r.got[0]
	if !resp.Data || resp.Tokens != 1 || resp.Owner {
		t.Fatalf("resp = %+v, want data + 1 plain token", resp)
	}
	tok, own := r.mc.Tokens(10)
	if tok != r.p.TotalTokens-1 || !own {
		t.Fatalf("memory kept %d tokens own=%v", tok, own)
	}
	if r.mc.Stats.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d", r.mc.Stats.DRAMReads)
	}
}

func TestGetSTransfersOwnershipWithLastToken(t *testing.T) {
	r := newRig(t)
	// Drain to one token.
	for i := 0; i < r.p.TotalTokens-1; i++ {
		r.send(token.Msg{Kind: token.MsgGetS, Addr: 20})
	}
	r.got = nil
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 20})
	if len(r.got) != 1 || !r.got[0].Owner {
		t.Fatalf("last-token response = %+v, want owner transfer", r.got)
	}
	tok, own := r.mc.Tokens(20)
	if tok != 0 || own {
		t.Fatal("memory kept state after giving away last token")
	}
	// Further GetS must be silent: memory is no longer owner.
	r.got = nil
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 20})
	if len(r.got) != 0 {
		t.Fatalf("non-owner memory responded: %+v", r.got)
	}
}

func TestGetXTakesEverything(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgGetX, Addr: 30, Write: true})
	if len(r.got) != 1 {
		t.Fatalf("responses = %d", len(r.got))
	}
	resp := r.got[0]
	if resp.Tokens != r.p.TotalTokens || !resp.Owner || !resp.Data {
		t.Fatalf("resp = %+v, want all tokens + owner + data", resp)
	}
	tok, own := r.mc.Tokens(30)
	if tok != 0 || own {
		t.Fatal("memory retained tokens after GetX")
	}
}

func TestWritebackRestoresTokens(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgGetX, Addr: 40, Write: true})
	r.send(token.Msg{Kind: token.MsgWBData, Addr: 40,
		Tokens: r.p.TotalTokens, Owner: true, Dirty: true, Data: true})
	tok, own := r.mc.Tokens(40)
	if tok != r.p.TotalTokens || !own {
		t.Fatalf("after WB: tokens=%d owner=%v", tok, own)
	}
	if r.mc.Stats.DRAMWrites != 1 {
		t.Fatalf("DRAM writes = %d", r.mc.Stats.DRAMWrites)
	}
}

func TestTokenOverflowPanics(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("token overflow not detected")
		}
	}()
	// Inject more tokens than exist (a protocol bug the controller must
	// catch rather than silently corrupt).
	r.mc.Handle(&token.Msg{Kind: token.MsgWBTokens, Addr: 50, Tokens: r.p.TotalTokens + 1})
}

func TestROSharedTokenOnlyWithProvider(t *testing.T) {
	r := newRig(t)
	r.mc.Oracle = oracleTrue{}
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 60, Page: mem.PageROShared})
	if len(r.got) != 1 {
		t.Fatalf("responses = %d", len(r.got))
	}
	if r.got[0].Data {
		t.Fatal("memory sent data although a cache provider exists")
	}
	if r.got[0].Tokens != 1 {
		t.Fatalf("tokens = %d, want 1", r.got[0].Tokens)
	}
	if r.mc.Stats.DRAMReads != 0 {
		t.Fatal("token-only response should not read DRAM")
	}
}

func TestROSharedDataWithoutProvider(t *testing.T) {
	r := newRig(t)
	r.mc.Oracle = oracleFalse{}
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 61, Page: mem.PageROShared})
	if len(r.got) != 1 || !r.got[0].Data {
		t.Fatalf("want data response, got %+v", r.got)
	}
}

type oracleTrue struct{}

func (oracleTrue) ROProviderAmong(mem.BlockAddr, []uint64) bool { return true }

type oracleFalse struct{}

func (oracleFalse) ROProviderAmong(mem.BlockAddr, []uint64) bool { return false }

func TestPersistentActivationAndQueueing(t *testing.T) {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := token.DefaultParams(4)
	var gotA, gotB, acts []token.Msg
	a := net.Attach(1, 1, func(m interface{}) {
		msg := *m.(*token.Msg)
		if msg.Kind == token.MsgPersistentActivate || msg.Kind == token.MsgPersistentDeactivate {
			acts = append(acts, msg)
			return
		}
		gotA = append(gotA, msg)
	})
	b := net.Attach(2, 2, func(m interface{}) {
		msg := *m.(*token.Msg)
		if msg.Kind == token.MsgPersistentActivate || msg.Kind == token.MsgPersistentDeactivate {
			acts = append(acts, msg)
			return
		}
		gotB = append(gotB, msg)
	})
	node := net.Attach(0, 0, nil)
	mc := &Ctrl{Eng: eng, Net: net, Node: node, P: p, Cores: 2}
	mc.Init()
	net.SetHandler(node, mc.Handle)

	// A activates: memory forwards its tokens to A and broadcasts.
	net.Send(a, node, p.CtrlBytes, &token.Msg{Kind: token.MsgPersistentReq, Addr: 70, Src: a})
	eng.Run()
	if mc.Stats.Activations != 1 {
		t.Fatalf("activations = %d", mc.Stats.Activations)
	}
	if len(gotA) != 1 || gotA[0].Tokens != p.TotalTokens {
		t.Fatalf("A received %+v, want all memory tokens", gotA)
	}
	// B requests while A active: queued, no second activation yet.
	net.Send(b, node, p.CtrlBytes, &token.Msg{Kind: token.MsgPersistentReq, Addr: 70, Src: b})
	eng.Run()
	if mc.Stats.Activations != 1 {
		t.Fatal("second activation fired while first still active")
	}
	// Tokens arriving at memory while A is active are forwarded to A.
	gotA = nil
	net.Send(b, node, p.CtrlBytes, &token.Msg{Kind: token.MsgWBTokens, Addr: 70, Tokens: 1, Src: b})
	eng.Run()
	if len(gotA) != 1 || gotA[0].Tokens != 1 {
		t.Fatalf("arriving token not forwarded to persistent requester: %+v", gotA)
	}
	// A releases: B activates next.
	net.Send(a, node, p.CtrlBytes, &token.Msg{Kind: token.MsgPersistentRelease, Addr: 70, Src: a})
	eng.Run()
	if mc.Stats.Activations != 2 {
		t.Fatalf("activations = %d, want 2 after release", mc.Stats.Activations)
	}
}

func TestStaleReleaseIgnored(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgPersistentRelease, Addr: 80})
	// No panic, no state: just ignored.
	if r.mc.Stats.Activations != 0 {
		t.Fatal("stale release changed state")
	}
}

// TestPersistentRequesterGetsOwnTokens: tokens the active requester itself
// sent reach memory when the fault layer bounces a response home, or as a
// writeback sent before its activation; memory forwards them to it as a
// response (the owner token with the data), instead of keeping them while
// the requester waits.
func TestPersistentRequesterGetsOwnTokens(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgPersistentReq, Addr: 90})
	r.got = r.got[:0]
	r.send(token.Msg{Kind: token.MsgTokens, Addr: 90, Tokens: 2})
	r.send(token.Msg{Kind: token.MsgWBTokens, Addr: 90, Tokens: 3, Owner: true})
	var kinds []token.Kind
	for _, m := range r.got {
		if m.Kind != token.MsgPersistentActivate {
			kinds = append(kinds, m.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != token.MsgTokens || kinds[1] != token.MsgData {
		t.Fatalf("requester received %v, want [Tokens Data]", kinds)
	}
	if tok, own, _ := r.mc.Peek(90); tok != 0 || own {
		t.Fatalf("memory kept (%d, %v) of the requester's tokens", tok, own)
	}
}

// TestQueuedRequesterWithdraws: a requester queues once however often it
// retries, and a release from a queued requester (it completed before its
// turn) takes it off the queue, so the active requester's release leaves
// the block with no persistent request.
func TestQueuedRequesterWithdraws(t *testing.T) {
	r := newRig(t)
	other := r.net.Attach(2, 2, func(interface{}) {})
	r.send(token.Msg{Kind: token.MsgPersistentReq, Addr: 95})
	for i := 0; i < 3; i++ {
		r.net.Send(other, r.node, r.p.CtrlBytes, &token.Msg{Kind: token.MsgPersistentReq, Addr: 95, Src: other})
		r.eng.Run()
	}
	if n := len(r.mc.persistent[95].waiters); n != 1 {
		t.Fatalf("%d queued requests after three retries, want 1", n)
	}
	r.net.Send(other, r.node, r.p.CtrlBytes, &token.Msg{Kind: token.MsgPersistentRelease, Addr: 95, Src: other})
	r.eng.Run()
	r.send(token.Msg{Kind: token.MsgPersistentRelease, Addr: 95})
	if r.mc.Stats.Activations != 1 || len(r.mc.persistent) != 0 {
		t.Fatalf("%d activations, %d persistent entries left; want 1 and 0",
			r.mc.Stats.Activations, len(r.mc.persistent))
	}
}
