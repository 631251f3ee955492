package token_test

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// byteStream hands out the bytes of a fuzz input in turn, cycling, and 0
// for an empty input; i counts the bytes handed out.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	s.i++
	if len(s.b) == 0 {
		return 0
	}
	return s.b[(s.i-1)%len(s.b)]
}

// maskRouter snoops the cores a fuzzed bitmask selects, never the
// requester itself.
type maskRouter struct {
	cores int
	masks *byteStream
	words [1]uint64
}

func (r *maskRouter) Route(info token.RouteInfo) (first, second []uint64) {
	mask := r.masks.next()
	r.words[0] = 0
	for i := 0; i < r.cores; i++ {
		if i != info.Requester && mask&(1<<(i%8)) != 0 {
			r.words[0] |= 1 << uint(i)
		}
	}
	return r.words[:], nil
}

// liveKind reports whether k is a kind the protocol sends: a released slot
// carries none of them.
func liveKind(k token.Kind) bool { return k <= token.MsgPersistentDeactivate }

// FuzzMsgLifetime drives the message hold protocol (Msgs.New, Msg.Sent,
// Msg.Release) through a six-core token machine whose cores park no-op
// snoops: fuzzed destination sets, fuzzed fault outcomes (requests dropped,
// duplicated or delayed; token-carrying responses bounced home or
// delayed; writebacks delayed), and fuzzed transaction starts and gaps on
// four contended blocks, so token gains race parked snoops and put them
// back. Every delivery must see a live message, and after the drain every
// slot must be back on its slab's free list: a hold released too early
// shows as a released message delivered or a negative count (both panic),
// one never released as a held slot. A run that trips the engine watchdog
// fails: persistent requests must drain every input.
func FuzzMsgLifetime(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x42, 0x07, 0x83, 0x31, 0xc4, 0x02, 0x49, 0x10}, []byte{0xff, 0x0f, 0x3c}, []byte{5, 0, 9, 1, 3, 17, 2, 8})
	f.Add([]byte{0x40, 0x01, 0x41, 0x00, 0x42, 0x00, 0x03, 0x00, 0x04, 0x00}, []byte{0xff}, []byte{7})
	f.Add([]byte{0xc1, 0x30, 0x02, 0x01, 0x45, 0x00, 0x06, 0x02}, []byte{0x00, 0xaa}, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	// Two writers and a reader on one block, routed to cores 4 and 5 only,
	// every request duplicated and every response delayed: a token gain
	// puts parked snoops back.
	f.Add([]byte("A0$000B0"), []byte("0"), []byte("1"))
	f.Fuzz(runLifetime)
}

// TestPersistentTokensReachRequester replays the input that once wedged a
// block: core 3's persistent request went active while a token response
// it had sent another core was bounced home, and memory kept those tokens
// because their Src was the active requester, so core 3 and every later
// persistent requester waited for good. Memory must forward them, and the
// run must drain.
func TestPersistentTokensReachRequester(t *testing.T) {
	runLifetime(t, []byte("\x200B\x00C\x00$0"), []byte("0"), []byte("0000207010211100"))
}

// TestWithdrawnRequesterNeverActivates replays an input in which core 0
// queued a persistent request behind core 1, then completed from a
// bounced response before its turn. Memory dropped its release as stale
// and later activated it, pledging the block to a core that wanted nothing
// and would never release: once memory forwards every token to the active
// requester, core 0 and memory pass the tokens back and forth for good.
// A release from a queued requester must withdraw it.
func TestWithdrawnRequesterNeverActivates(t *testing.T) {
	runLifetime(t, []byte("001020"), []byte("0"), []byte("z"))
}

// runLifetime is FuzzMsgLifetime's body: it runs one input and checks the
// drain.
func runLifetime(t *testing.T, ops, masks, faults []byte) {
	if len(ops) > 256 {
		ops = ops[:256]
	}
	const nCores = 6
	r := &maskRouter{cores: nCores, masks: &byteStream{b: masks}}
	h := newHarness(t, nCores, r)
	h.parkAll(false)
	for _, c := range h.ctrls {
		c := c
		h.net.SetHandler(c.Node, func(p interface{}) {
			if k := p.(*token.Msg).Kind; !liveKind(k) {
				t.Fatalf("core %d was delivered a released message (%v)", c.Core, k)
			}
			c.Handle(p)
		})
	}
	h.net.SetHandler(h.mc.Node, func(p interface{}) {
		if k := p.(*token.Msg).Kind; !liveKind(k) {
			t.Fatalf("memory was delivered a released message (%v)", k)
		}
		h.mc.Handle(p)
	})
	// Only the first maxFaulted sends draw a fault: a byte stream that
	// bounces every response would starve every requester for good.
	const maxFaulted = 200
	fs := &byteStream{b: faults}
	h.net.FaultHook = func(_, _ mesh.NodeID, _ int, payload interface{}) mesh.FaultOutcome {
		m := payload.(*token.Msg)
		if !liveKind(m.Kind) {
			t.Fatalf("a released message was sent (%v)", m.Kind)
		}
		if fs.i >= maxFaulted {
			return mesh.FaultOutcome{}
		}
		v := fs.next()
		delay := sim.Cycle(v >> 3)
		var out mesh.FaultOutcome
		switch m.Kind {
		case token.MsgGetS, token.MsgGetX:
			switch v & 7 {
			case 0:
				out.Drop = true
			case 1:
				out.Duplicate = true
			case 2:
				out.Delay = delay + 1
			case 3:
				out.Duplicate, out.Delay = true, delay+1
			}
		case token.MsgData, token.MsgTokens:
			switch v & 7 {
			case 0:
				out.Redirected, out.RedirectTo = true, h.mc.Node
			case 1:
				out.Delay = delay + 1
			case 2:
				out.Redirected, out.RedirectTo, out.Delay = true, h.mc.Node, delay+1
			}
		case token.MsgWBData, token.MsgWBTokens:
			if v&7 == 1 {
				out.Delay = delay + 1
			}
		}
		return out
	}

	started, done := 0, 0
	fn := func(interface{}, uint64) { done++ }
	var addrs []mem.BlockAddr
	for a := mem.BlockAddr(0); a < 4; a++ {
		addrs = append(addrs, 64+a)
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, gap := ops[i], ops[i+1]
		c := h.ctrls[int(op&7)%nCores]
		if !c.Busy() {
			c.Start(addrs[(op>>3)&3], 1, mem.PagePrivate, op&0x40 != 0, fn, nil)
			started++
		}
		h.eng.RunUntil(h.eng.Now() + sim.Cycle(gap))
	}
	h.eng.SetProgressLimit(1_000_000)
	if err := h.eng.Drain(0, 0, nil); err != nil {
		// A watchdog trip is a liveness failure: with faults limited
		// to the first sends, persistent requests must finish every
		// transaction.
		t.Fatal(err)
	}
	if done != started {
		t.Fatalf("%d of %d transactions completed", done, started)
	}
	h.checkConservation(t, addrs)
	for _, c := range h.ctrls {
		if n := c.HeldMsgs(); n != 0 {
			t.Fatalf("core %d: %d message slots still held after the drain", c.Core, n)
		}
	}
	if n := h.mc.HeldMsgs(); n != 0 {
		t.Fatalf("memory: %d message slots still held after the drain", n)
	}
}
