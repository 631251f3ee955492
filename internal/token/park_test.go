package token_test

import (
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// parkAll builds a park table over h's controllers, with one holder bitset
// shared by their L2s (member = core). Call it before any cache is used.
func (h *harness) parkAll(shadow bool) *token.ParkTable {
	holders := cache.NewHolders(len(h.ctrls))
	for i, c := range h.ctrls {
		c.L2.ShareHolders(holders, i)
	}
	return token.NewParkTable(h.ctrls, holders, shadow)
}

// TestTokenGainPutsBack covers both sites where a controller gains tokens
// — a stray response absorbed into a resident block, and a response to its
// own transaction — with a snoop for that block parked in a requester's
// record and due later: the gain must put the delivery back into the
// queue, withdrawing its parked counts, so the real snoop fires at its own
// (at, key).
func TestTokenGainPutsBack(t *testing.T) {
	t.Run("stray", func(t *testing.T) {
		h := newHarness(t, 2, nil)
		h.parkAll(false)
		c := h.ctrls[0]
		a := mem.BlockAddr(5)
		getS := &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[1].Node}
		if q, parked := h.ctrls[1].Multicast([]mesh.NodeID{c.Node}, getS); q != 0 || len(parked) != 1 {
			t.Fatalf("snoop to an absent block: %d queued, %d parked; want 0, 1", q, len(parked))
		}
		if c.SnoopLookups() != 1 || c.ParkedAhead() != 1 || c.Stats.SnoopLookups != 0 {
			t.Fatalf("parked: %d lookups (%d executed), %d ahead; want 1 (0), 1",
				c.SnoopLookups(), c.Stats.SnoopLookups, c.ParkedAhead())
		}
		c.L2.Insert(a, 1) // resident with no tokens: still a no-op for the snoop
		c.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[1].Node, Tokens: 1})
		if h.eng.Parked() != 0 || h.eng.Pending() != 1 || c.SnoopLookups() != 0 || c.ParkedAhead() != 0 {
			t.Fatalf("after the gain: %d parked, %d pending, %d lookups, %d ahead; want 0, 1 (put back), 0, 0",
				h.eng.Parked(), h.eng.Pending(), c.SnoopLookups(), c.ParkedAhead())
		}
		h.run()
		if c.SnoopLookups() != 1 || h.eng.Fired() != 1 {
			t.Fatalf("%d lookups, %d events fired; want the put-back snoop once", c.SnoopLookups(), h.eng.Fired())
		}
	})
	t.Run("transaction", func(t *testing.T) {
		h := newHarness(t, 2, nil)
		h.parkAll(false)
		c := h.ctrls[0]
		a := mem.BlockAddr(6)
		done := 0
		c.Start(a, 1, mem.PagePrivate, false, func(interface{}, uint64) { done++ }, nil)
		// Core 1's GetX, due long after memory's reply fills core 0.
		h.net.FaultHook = delayHook(h.ctrls[1].Node, c.Node, 5000)
		getX := &token.Msg{Kind: token.MsgGetX, Addr: a, Src: h.ctrls[1].Node, Write: true}
		if _, parked := h.ctrls[1].Multicast([]mesh.NodeID{c.Node}, getX); len(parked) != 1 {
			t.Fatal("snoop to an absent block was not parked")
		}
		h.run()
		// Core 0's own GetS to core 1 stays parked: core 1 holds nothing.
		if done != 1 || h.eng.Parked() != 1 || h.ctrls[1].SnoopLookups() != 1 {
			t.Fatalf("%d transactions done, %d still parked, %d lookups at core 1; want 1, 1 (core 0's GetS), 1",
				done, h.eng.Parked(), h.ctrls[1].SnoopLookups())
		}
		if b := c.L2.Lookup(a); b != nil && b.Tokens > 0 {
			t.Fatalf("core 0 kept %d tokens: the put-back GetX never ran", b.Tokens)
		}
		h.checkConservation(t, []mem.BlockAddr{a})
	})
}

// TestResidentWithoutTokensDelivered covers a snoop to an L2 that holds
// the block without tokens. The keep mask parks only snoops to cores that
// hold no copy, so this one is delivered, and it must count exactly what a
// parked snoop to an absent block counts: one lookup and one fired event.
// Being a real event, it acts if the core gains tokens before it arrives.
func TestResidentWithoutTokensDelivered(t *testing.T) {
	snoop := func(resident bool) (queued, parked int, lookups, fired uint64) {
		h := newHarness(t, 2, nil)
		h.parkAll(false)
		c := h.ctrls[0]
		a := mem.BlockAddr(11)
		if resident {
			c.L2.Insert(a, 1)
		}
		getS := &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[1].Node}
		q, p := h.ctrls[1].Multicast([]mesh.NodeID{c.Node}, getS)
		h.run()
		return q, len(p), c.SnoopLookups(), h.eng.Fired()
	}
	aq, ap, alook, afired := snoop(false)
	rq, rp, rlook, rfired := snoop(true)
	if aq != 0 || ap != 1 || rq != 1 || rp != 0 {
		t.Fatalf("absent: %d queued, %d parked; resident: %d queued, %d parked; want 0, 1 and 1, 0", aq, ap, rq, rp)
	}
	if alook != 1 || rlook != alook || rfired != afired {
		t.Fatalf("lookups %d (absent) and %d (resident), events fired %d and %d; want 1 lookup each and equal events",
			alook, rlook, afired, rfired)
	}

	// The resident block gains a token before the GetX arrives: the GetX
	// takes it and sends it to core 1, whose resident copy absorbs it.
	h := newHarness(t, 2, nil)
	h.parkAll(false)
	c := h.ctrls[0]
	a := mem.BlockAddr(12)
	c.L2.Insert(a, 1)
	h.ctrls[1].L2.Insert(a, 1)
	getX := &token.Msg{Kind: token.MsgGetX, Addr: a, Src: h.ctrls[1].Node, Write: true}
	if q, p := h.ctrls[1].Multicast([]mesh.NodeID{c.Node}, getX); q != 1 || len(p) != 0 {
		t.Fatalf("GetX to a resident block: %d queued, %d parked; want 1, 0", q, len(p))
	}
	c.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[1].Node, Tokens: 1})
	h.run()
	if b := c.L2.Lookup(a); b != nil {
		t.Fatalf("core 0 still holds the block with %d tokens: the GetX did not act", b.Tokens)
	}
	if b := h.ctrls[1].L2.Lookup(a); b == nil || b.Tokens != 1 {
		t.Fatalf("core 1's copy is %+v, want the token core 0 gained", b)
	}
	if c.SnoopLookups() != 1 || h.ctrls[0].Stats.SnoopLookups != 1 || h.eng.Parked() != 0 {
		t.Fatalf("%d lookups (%d executed), %d parked; want 1 (1), 0",
			c.SnoopLookups(), c.Stats.SnoopLookups, h.eng.Parked())
	}
}

// delayHook is a fault hook that delays every GetX and GetS from core node
// from to core node to by delay cycles, and leaves every other message
// alone: a snoop parked at send time is then due after the destination's
// own traffic has moved on.
func delayHook(from, to mesh.NodeID, delay sim.Cycle) mesh.FaultHook {
	return func(src, dst mesh.NodeID, _ int, payload interface{}) mesh.FaultOutcome {
		k := payload.(*token.Msg).Kind
		if src == from && dst == to && (k == token.MsgGetS || k == token.MsgGetX) {
			return mesh.FaultOutcome{Delay: delay}
		}
		return mesh.FaultOutcome{}
	}
}

// parkOutcome is what a park test compares between a parking run, a
// shadow run and a run that parks nothing.
type parkOutcome struct {
	fired, retries uint64
	lookups        [4]uint64
	held           [4]bool // core c's L2 holds the test's first block
	done           int
}

// parkMode selects how runRace and runRing treat snoops.
type parkMode int

const (
	parkNone parkMode = iota
	parkLive
	parkShadow
)

func (m parkMode) String() string { return [...]string{"none", "live", "shadow"}[m] }

// newParkHarness builds a four-core harness whose GetS/GetX from core 1 to
// core 0 are delayed by delay cycles, parking as mode says.
func newParkHarness(t *testing.T, mode parkMode, delay sim.Cycle) (*harness, *token.ParkTable) {
	h := newHarness(t, 4, nil)
	h.useStaticRouter()
	var pt *token.ParkTable
	if mode != parkNone {
		pt = h.parkAll(mode == parkShadow)
	}
	h.net.FaultHook = delayHook(h.ctrls[1].Node, h.ctrls[0].Node, delay)
	return h, pt
}

// outcome reads h's results, a the block whose holders it records.
func (h *harness) outcome(a mem.BlockAddr, done int) parkOutcome {
	o := parkOutcome{fired: h.eng.Fired(), done: done}
	for i, c := range h.ctrls {
		o.retries += c.Stats.Retries
		o.lookups[i] = c.SnoopLookups()
		o.held[i] = c.L2.Lookup(a) != nil
	}
	return o
}

// runRace races two requesters on one block: core 0 reads it from memory
// while core 1 writes it, core 1's GetX to core 0 delayed so that it is
// parked (core 0 holds nothing yet) but due after memory's reply gives core
// 0 a token, and before core 1's retry timeout. Only a put-back through
// core 1's record delivers that GetX in time: without it core 1 collects
// core 0's token only by retrying.
func runRace(t *testing.T, mode parkMode) (parkOutcome, *harness) {
	h, _ := newParkHarness(t, mode, 280)
	a := mem.BlockAddr(77)
	done := 0
	fn := func(interface{}, uint64) { done++ }
	h.ctrls[0].Start(a, 1, mem.PagePrivate, false, fn, nil)
	h.eng.RunUntil(h.eng.Now() + 20) // core 0's GetS reaches memory first
	h.ctrls[1].Start(a, 1, mem.PagePrivate, true, fn, nil)
	h.run()
	h.checkConservation(t, []mem.BlockAddr{a})
	return h.outcome(a, done), h
}

// TestRacingRequestersPutBack checks a put-back through a requester's
// record in a real race: the parking run and the shadow run must equal
// the run that parks nothing, down to events fired and per-core lookups;
// the race must need the put-back (no retry), and the shadow run must
// check deliveries at delivery and see exactly one put-back and no
// violation.
func TestRacingRequestersPutBack(t *testing.T) {
	want, _ := runRace(t, parkNone)
	if want.done != 2 || want.retries != 0 || want.held[0] {
		t.Fatalf("reference race: %d done, %d retries, core 0 holds the block %v; want 2, 0, false",
			want.done, want.retries, want.held[0])
	}
	for _, mode := range []parkMode{parkLive, parkShadow} {
		got, h := runRace(t, mode)
		if got != want {
			t.Fatalf("%v: %+v, want %+v", mode, got, want)
		}
		var checked, putBacks, violations uint64
		for _, c := range h.ctrls {
			ch, p, v := c.ShadowStats()
			checked, putBacks, violations = checked+ch, putBacks+p, violations+v
		}
		if mode == parkShadow && (checked == 0 || putBacks != 1 || violations != 0) {
			t.Fatalf("shadow: %d checked, %d put back, %d violations; want some, 1, 0",
				checked, putBacks, violations)
		}
		if mode == parkLive && h.eng.Parked() == 0 {
			t.Fatal("the parking run parked nothing")
		}
	}
}

// runRing has core 1 write ringBlocks blocks in turn, each GetX to core 0
// delayed long enough that every one is still in flight when core 1
// multicasts the next: core 1's earlier records must stay in its ring,
// which grows past its two starting slots. Core 0 then reads the first
// block, gaining a token from core 1 before that block's GetX is due, so
// the put-back comes out of core 1's oldest record, and the GetX takes the
// block back from core 0.
func runRing(t *testing.T, mode parkMode) (parkOutcome, *harness) {
	const ringBlocks = 5
	h, pt := newParkHarness(t, mode, 5000)
	done := 0
	fn := func(interface{}, uint64) { done++ }
	first := mem.BlockAddr(300)
	for i := mem.BlockAddr(0); i < ringBlocks; i++ {
		h.ctrls[1].Start(first+i, 1, mem.PagePrivate, true, fn, nil)
		for h.ctrls[1].Busy() {
			h.eng.Step()
		}
	}
	h.ctrls[0].Start(first, 1, mem.PagePrivate, false, fn, nil)
	h.run()
	addrs := make([]mem.BlockAddr, ringBlocks)
	for i := range addrs {
		addrs[i] = first + mem.BlockAddr(i)
	}
	h.checkConservation(t, addrs)
	// Each of core 1's multicasts after its first found its earlier
	// records still live.
	if pt != nil {
		if _, live := pt.Counts(); live != ringBlocks-1 {
			t.Fatalf("%v: %d multicasts kept live records, want %d", mode, live, ringBlocks-1)
		}
	}
	return h.outcome(first, done), h
}

// TestParkRingKeepsEarlierRecords checks the ring path: a requester that
// multicasts again while its earlier records still hold deliveries in
// flight keeps them, and a token gain puts back a delivery from the oldest.
func TestParkRingKeepsEarlierRecords(t *testing.T) {
	want, _ := runRing(t, parkNone)
	if want.done != 6 || want.held[0] {
		t.Fatalf("reference: %d done, core 0 holds the block %v; want 6, false (the delayed GetX took it back)",
			want.done, want.held[0])
	}
	for _, mode := range []parkMode{parkLive, parkShadow} {
		got, h := runRing(t, mode)
		if got != want {
			t.Fatalf("%v: %+v, want %+v", mode, got, want)
		}
		if _, putBacks, violations := h.ctrls[0].ShadowStats(); mode == parkShadow && (putBacks != 1 || violations != 0) {
			t.Fatalf("shadow: %d put back, %d violations; want 1, 0", putBacks, violations)
		}
	}
}

// TestParkedAheadAndDrop checks ParkedAhead, as a warm-up snapshot reads
// it, and DropParked, as an early stop calls it, over records of several
// requesters, each with several records in its ring: ParkedAhead counts
// exactly the deliveries to the core that have not passed, and DropParked
// withdraws exactly those, from the lookups and from the engine's parked
// count, once.
func TestParkedAheadAndDrop(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.parkAll(false)
	// Each multicast is delayed by delay: far more than the few cycles
	// its route and contention take.
	var delay sim.Cycle
	h.net.FaultHook = func(mesh.NodeID, mesh.NodeID, int, interface{}) mesh.FaultOutcome {
		return mesh.FaultOutcome{Delay: delay}
	}
	c0, c2 := h.ctrls[0], h.ctrls[2]
	now := h.eng.Now()
	// Requesters 1..3 each park three deliveries to core 0 (due about 1000,
	// 2000 and 3000 cycles on, shifted by 100 per requester), and 1 and 3
	// one to core 2.
	for req := 1; req <= 3; req++ {
		r := h.ctrls[req]
		m := &token.Msg{Kind: token.MsgGetS, Addr: mem.BlockAddr(900 + req), Src: r.Node}
		for i := 1; i <= 3; i++ {
			delay = sim.Cycle(1000*i + 100*req)
			if _, parked := r.Multicast([]mesh.NodeID{c0.Node}, m); len(parked) != 1 {
				t.Fatal("a snoop to an absent block was not parked")
			}
		}
		if req == 2 {
			continue
		}
		delay = 5000
		if _, parked := r.Multicast([]mesh.NodeID{c2.Node}, m); len(parked) != 1 {
			t.Fatal("a snoop to an absent block was not parked")
		}
	}
	if c0.ParkedAhead() != 9 || c2.ParkedAhead() != 2 || h.eng.Parked() != 11 {
		t.Fatalf("%d and %d ahead at cores 0 and 2, %d parked; want 9, 2, 11", c0.ParkedAhead(), c2.ParkedAhead(), h.eng.Parked())
	}
	// The warm-up snapshot point: requester 1's first two deliveries and
	// the other requesters' first have passed.
	h.eng.RunUntil(now + 2150)
	if got := c0.ParkedAhead(); got != 5 {
		t.Fatalf("%d deliveries to core 0 ahead after 2150 cycles, want 5", got)
	}
	if got := c0.SnoopLookups(); got != 9 {
		t.Fatalf("core 0 counts %d lookups, want all 9 parked", got)
	}
	// The early stop.
	if got := c0.DropParked(); got != 5 {
		t.Fatalf("DropParked dropped %d deliveries, want 5", got)
	}
	if c0.SnoopLookups() != 4 || c0.ParkedAhead() != 0 || h.eng.Parked() != 6 {
		t.Fatalf("after the drop: %d lookups, %d ahead, %d parked; want 4, 0, 6",
			c0.SnoopLookups(), c0.ParkedAhead(), h.eng.Parked())
	}
	if got := c0.DropParked(); got != 0 {
		t.Fatalf("a second DropParked dropped %d deliveries", got)
	}
	if got := c2.DropParked(); got != 2 || c2.SnoopLookups() != 0 || h.eng.Parked() != 4 {
		t.Fatalf("core 2: dropped %d, %d lookups left, %d parked; want 2, 0, 4", got, c2.SnoopLookups(), h.eng.Parked())
	}
}

// TestParkZeroAlloc gates snoop parking at zero allocations in steady
// state: opening records, multicasting with a keep mask into a record's
// buffer, retiring done records and putting deliveries back into the
// queue on a token gain all reuse the requesters' rings and the engine's
// node pool. Each iteration has requester 1 multicast three snoops for a
// block core 0 then gains a token for (put back and fired) and requester 2
// three for one it never holds, each in a record of its own, so every ring
// holds three live records; it checks the counts the parked and put-back
// deliveries leave behind.
func TestParkZeroAlloc(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.parkAll(false)
	c := h.ctrls[0]
	gained, idle := mem.BlockAddr(7), mem.BlockAddr(9)
	getS := &token.Msg{Kind: token.MsgGetS, Addr: gained, Src: h.ctrls[1].Node}
	idleS := &token.Msg{Kind: token.MsgGetS, Addr: idle, Src: h.ctrls[2].Node}
	tok := &token.Msg{Kind: token.MsgTokens, Addr: gained, Src: h.ctrls[1].Node, Tokens: 1}
	dst := []mesh.NodeID{c.Node}
	iter := func() {
		now := h.eng.Now()
		lookups, fired := c.SnoopLookups(), h.eng.Fired()
		for i := 0; i < 3; i++ {
			_, p1 := h.ctrls[1].Multicast(dst, getS)
			_, p2 := h.ctrls[2].Multicast(dst, idleS)
			if len(p1) != 1 || len(p2) != 1 {
				t.Fatal("a snoop to an absent block was not parked")
			}
		}
		blk, _, _ := c.L2.Insert(gained, 1)
		c.Handle(tok) // the token gain: puts getS's three deliveries back
		h.eng.RunUntil(now + 100)
		c.L2.Invalidate(gained, blk)
		if got := c.SnoopLookups() - lookups; got != 6 {
			t.Fatalf("%d snoop lookups per iteration, want 6", got)
		}
		if got := h.eng.Fired() - fired; got != 6 {
			t.Fatalf("%d events fired per iteration, want 6 (3 parked, 3 put back)", got)
		}
	}
	iter() // grows the rings and the engine's node pool
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Fatalf("parking allocates %.2f times per iteration, want 0", avg)
	}
}

// FuzzParkTable drives several requesters' multicasts, token gains, clock
// advances and early stops through one ParkTable on a four-core harness.
// It keeps the per-destination list of deliveries the table's records
// replace, and after every step requires each core's ParkedAhead and
// SnoopLookups, and the engine's parked count, to match that list: a
// delivery parked and not put back or dropped counts one lookup at once,
// and a put-back or queued one counts when it fires. Every multicast must
// park exactly its deliveries to cores whose L2 holds no copy of the
// block, in destination order.
//
// ops is read three bytes at a time, (op, x, y):
//   - op%4 < 2: requester op>>2 multicasts a GetS for block x%3 to the
//     cores in y's low four bits (never itself), the delivery to core d
//     delayed by x>>2 + d*(y>>4) cycles;
//   - op%4 == 2: core x%4 gains a token for block y%3 (the block is made
//     resident first), and gives it up again if x&0x80 is set, keeping the
//     block without tokens, or drops the block if x&0x40 is set;
//   - op%4 == 3: the clock moves y cycles on, or with x&1 set every core
//     drops what it has parked, as a run that stops early does.
func FuzzParkTable(f *testing.F) {
	f.Add([]byte{0x04, 0x10, 0x3f, 0x02, 0x00, 0x01, 0x03, 0x00, 0x08, 0x03, 0x01, 0x00})
	f.Add([]byte{0x00, 0x41, 0x2e, 0x04, 0x41, 0x2d, 0x08, 0x42, 0x1b, 0x02, 0x82, 0x01, 0x03, 0x00, 0x30, 0x02, 0x00, 0x01})
	// Requester 1 parks block 40 (due soon) then block 296 (due late) at
	// core 0, multicasts again once 40's record has passed, and core 0
	// gains a token for 296: the put-back needs the slot bit the retired
	// record shared.
	f.Add([]byte{0x04, 0x0c, 0x01, 0x04, 0xfe, 0x01, 0x03, 0x00, 0x10, 0x04, 0x01, 0x04, 0x02, 0x00, 0x02})
	f.Add([]byte{0x0c, 0xfe, 0xff, 0x00, 0xfd, 0xf1, 0x04, 0xfc, 0xf2, 0x03, 0x01, 0x00, 0x02, 0x80, 0x00, 0x03, 0x00, 0xff})
	// Core 0 keeps block 40 without tokens, so requester 1's snoop is
	// delivered; core 0 then drops the block, and the next one parks.
	f.Add([]byte{0x02, 0x80, 0x00, 0x04, 0x40, 0x01, 0x03, 0x00, 0x80, 0x02, 0x40, 0x00, 0x04, 0x40, 0x01})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		const nCores = 4
		h := newHarness(t, nCores, nil)
		h.parkAll(false)
		// Blocks 40 and 296 share a block slot: a record retiring must not
		// clear the slot bit another live record of its ring still needs.
		addrs := [3]mem.BlockAddr{40, 41, 296}
		var msgs [nCores][3]*token.Msg
		for r := range msgs {
			for i, a := range addrs {
				msgs[r][i] = &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[r].Node}
			}
		}
		var delays [nCores]sim.Cycle
		h.net.FaultHook = func(_, dst mesh.NodeID, _ int, _ interface{}) mesh.FaultOutcome {
			return mesh.FaultOutcome{Delay: delays[dst]}
		}
		// delivered[c] counts the queued snoops the mesh delivered to core
		// c; a put-back one is handled without the mesh.
		var delivered [nCores]uint64
		for i, c := range h.ctrls {
			i, c := i, c
			h.net.SetHandler(c.Node, func(p interface{}) {
				delivered[i]++
				c.Handle(p)
			})
		}
		const (
			parked = iota
			putBack
			dropped
		)
		type delivery struct {
			at    sim.Cycle
			key   uint64
			addr  mem.BlockAddr
			state int
		}
		refs := make([][]delivery, nCores)
		// reached reports whether the engine has fired, or passed, (at, key).
		reached := func(at sim.Cycle, key uint64) bool {
			now := h.eng.Now()
			return at < now || at == now && key <= h.eng.CurKey()
		}
		check := func(step int) {
			t.Helper()
			var total uint64
			for dst, c := range h.ctrls {
				var ahead uint64
				lookups := delivered[dst]
				for _, d := range refs[dst] {
					switch d.state {
					case parked:
						lookups++
						total++
						if !reached(d.at, d.key) {
							ahead++
						}
					case putBack:
						if reached(d.at, d.key) {
							lookups++
						}
					}
				}
				if got := c.ParkedAhead(); got != ahead {
					t.Fatalf("step %d: core %d has %d parked deliveries ahead, reference %d", step, dst, got, ahead)
				}
				if got := c.SnoopLookups(); got != lookups {
					t.Fatalf("step %d: core %d counts %d lookups, reference %d", step, dst, got, lookups)
				}
			}
			if got := h.eng.Parked(); got != total {
				t.Fatalf("step %d: engine counts %d parked events, reference %d", step, got, total)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op, x, y := ops[i], ops[i+1], ops[i+2]
			switch op % 4 {
			case 0, 1:
				req := int(op>>2) % nCores
				m := msgs[req][x%3]
				var dsts []mesh.NodeID
				var wantParked, wantQueued []int
				for dst := 0; dst < nCores; dst++ {
					if y>>dst&1 == 0 || dst == req {
						continue
					}
					dsts = append(dsts, h.ctrls[dst].Node)
					delays[dst] = sim.Cycle(x>>2) + sim.Cycle(dst)*sim.Cycle(y>>4)
					if h.ctrls[dst].L2.Lookup(m.Addr) == nil {
						wantParked = append(wantParked, dst)
					} else {
						wantQueued = append(wantQueued, dst)
					}
				}
				q, kept := h.ctrls[req].Multicast(dsts, m)
				if q != len(wantQueued) || len(kept) != len(wantParked) {
					t.Fatalf("step %d: %d queued, %d parked; want %d (cores %v), %d (cores %v)",
						i/3, q, len(kept), len(wantQueued), wantQueued, len(wantParked), wantParked)
				}
				for j, p := range kept {
					if int(p.Dst) != wantParked[j] {
						t.Fatalf("step %d: parked delivery %d went to core %d, want %d", i/3, j, p.Dst, wantParked[j])
					}
					refs[p.Dst] = append(refs[p.Dst], delivery{at: p.At, key: p.Key, addr: m.Addr, state: parked})
				}
			case 2:
				dst := int(x) % nCores
				c, a := h.ctrls[dst], addrs[y%3]
				b := c.L2.Lookup(a)
				if b == nil {
					b, _, _ = c.L2.Insert(a, 1)
				}
				c.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[(dst+1)%nCores].Node, Tokens: 1})
				for j := range refs[dst] {
					if d := &refs[dst][j]; d.state == parked && d.addr == a && !reached(d.at, d.key) {
						d.state = putBack
					}
				}
				switch {
				case x&0x80 != 0:
					b.Tokens = 0
				case x&0x40 != 0:
					c.L2.Invalidate(a, b)
				}
			case 3:
				if x&1 == 0 {
					h.eng.RunUntil(h.eng.Now() + sim.Cycle(y))
					break
				}
				for dst, c := range h.ctrls {
					var want uint64
					for j := range refs[dst] {
						if d := &refs[dst][j]; d.state == parked && !reached(d.at, d.key) {
							d.state = dropped
							want++
						}
					}
					if got := c.DropParked(); got != want {
						t.Fatalf("step %d: core %d dropped %d parked deliveries, reference %d", i/3, dst, got, want)
					}
				}
			}
			check(i / 3)
		}
		h.run()
		check(len(ops) / 3)
	})
}

// TestSameCycleRecordRetiresLast covers a record whose latest deliveries
// share a cycle: requester 1 parks snoops to cores 0 and 3 and sends one
// to core 2, a holder, all due at one cycle with keys in that order. When
// core 2's delivery fires, core 0's has passed and core 3's has not, so
// requester 1's next multicast must keep the record: core 3 then gains a
// token for the block, and its snoop must be put back and fire.
func TestSameCycleRecordRetiresLast(t *testing.T) {
	const a, other = mem.BlockAddr(50), mem.BlockAddr(51)
	// build returns a four-core parking harness whose multicasts from
	// core 1 are delayed per destination by delays.
	build := func(delays *[4]sim.Cycle) (*harness, *token.ParkTable) {
		h := newHarness(t, 4, nil)
		pt := h.parkAll(false)
		h.net.FaultHook = func(_, dst mesh.NodeID, _ int, _ interface{}) mesh.FaultOutcome {
			if int(dst) < len(delays) {
				return mesh.FaultOutcome{Delay: delays[dst]}
			}
			return mesh.FaultOutcome{}
		}
		return h, pt
	}
	getS := func(h *harness, addr mem.BlockAddr) *token.Msg {
		return &token.Msg{Kind: token.MsgGetS, Addr: addr, Src: h.ctrls[1].Node}
	}
	// A scout run, with every destination parked, learns each route's
	// arrival; the real run delays each to one common cycle.
	var delays [4]sim.Cycle
	scout, _ := build(&delays)
	dsts := []mesh.NodeID{0, 2, 3}
	_, parked := scout.ctrls[1].Multicast(dsts, getS(scout, a))
	var due sim.Cycle
	for _, p := range parked {
		due = max(due, p.At+10)
	}
	for _, p := range parked {
		delays[p.Dst] = due - p.At
	}

	h, pt := build(&delays)
	c2, c3 := h.ctrls[2], h.ctrls[3]
	c2.L2.Insert(a, 1) // a holder without tokens: its snoop is queued
	fired := false
	h.net.SetHandler(c2.Node, func(p interface{}) {
		c2.Handle(p)
		if fired {
			return
		}
		fired = true
		if _, parked := h.ctrls[1].Multicast([]mesh.NodeID{0}, getS(h, other)); len(parked) != 1 {
			t.Fatal("the second multicast parked nothing")
		}
		c3.L2.Insert(a, 1)
		c3.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[0].Node, Tokens: 1})
	})
	q, parked := h.ctrls[1].Multicast(dsts, getS(h, a))
	if q != 1 || len(parked) != 2 || parked[0].At != due || parked[1].At != due {
		t.Fatalf("%d queued, parked %+v; want 1 queued and cores 0 and 3 parked at cycle %d", q, parked, due)
	}
	h.run()
	putBacks, live := pt.Counts()
	if !fired || putBacks != 1 || live != 1 || c3.Stats.SnoopLookups != 1 || c3.SnoopLookups() != 1 {
		t.Fatalf("fired %v, %d put back, %d multicasts kept a live record, core 3 executed %d of %d lookups; want true, 1, 1, 1 of 1",
			fired, putBacks, live, c3.Stats.SnoopLookups, c3.SnoopLookups())
	}
}
