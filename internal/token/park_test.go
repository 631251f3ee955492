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

// newQuadHarness builds a 16-core 4x4 harness cut into four quadrant
// snoop domains, as a machine is (the memory controller shares core 0's
// router), with a park table in shadow mode or not. Its multicasts list
// the kept deliveries inside the sender's quadrant, whose routes reserve
// links, and derive the others.
func newQuadHarness(t testing.TB, shadow bool) (*harness, *token.ParkTable) {
	h := newHarness(t, 16, nil)
	h.eng.SetDomains(4)
	nodeDom := make([]int32, len(h.ctrls)+1)
	for i := range h.ctrls {
		nodeDom[i] = quadOf(i)
	}
	h.net.Partition(nodeDom, 4)
	return h, h.parkAll(shadow)
}

// quadOf returns core i's quadrant on the 4x4 mesh.
func quadOf(i int) int32 { return int32(i/8*2 + i%4/2) }

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
		if q, parked := h.ctrls[1].Multicast(mesh.Words(c.Node), getS); q != 0 || parked != 1 {
			t.Fatalf("snoop to an absent block: %d queued, %d parked; want 0, 1", q, parked)
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
		if _, parked := h.ctrls[1].Multicast(mesh.Words(c.Node), getX); parked != 1 {
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
	t.Run("derived", func(t *testing.T) {
		// On the quadrant harness core 5's snoops to cores 10 and 15
		// cross quadrants, so both are derived. Core 15 gains a token
		// before its snoop arrives: the snoop is put back and fires at its
		// own (at, key). Core 10 gains one after its snoop arrived: the
		// parked delivery passed as a no-op and is left alone.
		h, pt := newQuadHarness(t, false)
		req, c10, c15 := h.ctrls[5], h.ctrls[10], h.ctrls[15]
		a := mem.BlockAddr(8)
		getS := &token.Msg{Kind: token.MsgGetS, Addr: a, Src: req.Node}
		if q, n := req.Multicast(mesh.Words(c10.Node, c15.Node), getS); q != 0 || n != 2 || req.Derived() != 2 {
			t.Fatalf("%d queued, %d parked, %d derived; want 0, 2, 2", q, n, req.Derived())
		}
		p := req.LastParked()
		if len(p) != 2 || p[0].Dst != 10 || p[1].Dst != 15 || p[0].At >= p[1].At {
			t.Fatalf("parked %+v; want core 10's snoop, then core 15's, due later", p)
		}
		gain := func(c *token.CacheCtrl) {
			c.L2.Insert(a, 1)
			c.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[0].Node, Tokens: 1})
		}
		gain(c15)
		if putBacks, _ := pt.Counts(); putBacks != 1 || h.eng.Parked() != 1 || c15.ParkedAhead() != 0 || c15.SnoopLookups() != 0 {
			t.Fatalf("after the early gain: %d put back, %d parked, %d ahead and %d lookups at core 15; want 1, 1, 0, 0",
				putBacks, h.eng.Parked(), c15.ParkedAhead(), c15.SnoopLookups())
		}
		h.eng.RunUntil(p[0].At + 1)
		gain(c10)
		if putBacks, _ := pt.Counts(); putBacks != 1 || h.eng.Parked() != 1 || c10.SnoopLookups() != 1 || c10.Stats.SnoopLookups != 0 {
			t.Fatalf("after the late gain: %d put back, %d parked, core 10 %d lookups (%d executed); want 1, 1, 1 (0)",
				putBacks, h.eng.Parked(), c10.SnoopLookups(), c10.Stats.SnoopLookups)
		}
		h.eng.RunUntil(p[1].At - 1)
		if c15.Stats.SnoopLookups != 0 {
			t.Fatal("core 15's put-back snoop fired before its cycle")
		}
		h.eng.RunUntil(p[1].At)
		if c15.Stats.SnoopLookups != 1 || c15.SnoopLookups() != 1 {
			t.Fatalf("core 15 executed %d of %d lookups at the snoop's cycle, want 1 of 1", c15.Stats.SnoopLookups, c15.SnoopLookups())
		}
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
		q, p := h.ctrls[1].Multicast(mesh.Words(c.Node), getS)
		h.run()
		return q, p, c.SnoopLookups(), h.eng.Fired()
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
	if q, p := h.ctrls[1].Multicast(mesh.Words(c.Node), getX); q != 1 || p != 0 {
		t.Fatalf("GetX to a resident block: %d queued, %d parked; want 1, 0", q, p)
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
			if _, parked := r.Multicast(mesh.Words(c0.Node), m); parked != 1 {
				t.Fatal("a snoop to an absent block was not parked")
			}
		}
		if req == 2 {
			continue
		}
		delay = 5000
		if _, parked := r.Multicast(mesh.Words(c2.Node), m); parked != 1 {
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
// state: opening records, multicasting with a keep mask into a record,
// retiring done records and putting listed and derived deliveries back
// into the queue on a token gain all reuse the requesters' rings and the
// engine's node pool. On the quadrant harness, each iteration has
// requester 0 (another quadrant: derived) and requester 10 (core 15's
// quadrant: listed) each multicast three snoops to core 15 for a block
// core 15 then gains a token for (put back and fired), and requester 5
// three for one it never holds, each in a record of its own, so every ring
// holds three live records; it checks the counts the parked and put-back
// deliveries leave behind.
func TestParkZeroAlloc(t *testing.T) {
	h, pt := newQuadHarness(t, false)
	c := h.ctrls[15]
	gained, idle := mem.BlockAddr(7), mem.BlockAddr(9)
	reqs := [3]*token.CacheCtrl{h.ctrls[0], h.ctrls[10], h.ctrls[5]}
	var snoops [3]*token.Msg
	for i, r := range reqs {
		a := gained
		if i == 2 {
			a = idle
		}
		snoops[i] = &token.Msg{Kind: token.MsgGetS, Addr: a, Src: r.Node}
	}
	tok := &token.Msg{Kind: token.MsgTokens, Addr: gained, Src: h.ctrls[1].Node, Tokens: 1}
	dst := mesh.Words(c.Node)
	var derived, putBacks uint64
	iter := func() {
		now := h.eng.Now()
		lookups, fired := c.SnoopLookups(), h.eng.Fired()
		for i := 0; i < 3; i++ {
			for j, r := range reqs {
				if _, p := r.Multicast(dst, snoops[j]); p != 1 {
					t.Fatal("a snoop to an absent block was not parked")
				}
				derived += uint64(r.Derived())
			}
		}
		before, _ := pt.Counts()
		blk, _, _ := c.L2.Insert(gained, 1)
		c.Handle(tok) // the token gain: puts six deliveries back
		after, _ := pt.Counts()
		putBacks += after - before
		h.eng.RunUntil(now + 100)
		c.L2.Invalidate(gained, blk)
		if got := c.SnoopLookups() - lookups; got != 9 {
			t.Fatalf("%d snoop lookups per iteration, want 9", got)
		}
		if got := h.eng.Fired() - fired; got != 9 {
			t.Fatalf("%d events fired per iteration, want 9 (3 parked, 6 put back)", got)
		}
	}
	iter() // grows the rings and the engine's node pool
	if derived != 6 || putBacks != 6 {
		t.Fatalf("%d deliveries derived, %d put back; want 6 derived (requesters 0 and 5) and 6 put back", derived, putBacks)
	}
	if avg := testing.AllocsPerRun(200, iter); avg != 0 {
		t.Fatalf("parking allocates %.2f times per iteration, want 0", avg)
	}
}

// FuzzParkTable drives several requesters' multicasts, token gains, clock
// advances and early stops through one ParkTable on the quadrant harness,
// whose records mix listed deliveries (inside the sender's quadrant) and
// derived ones (across quadrants). It keeps the per-destination list of
// deliveries the table's records replace, and after every step requires
// each core's ParkedAhead and SnoopLookups, and the engine's parked count,
// to match that list: a delivery parked and not put back or dropped counts
// one lookup at once, and a put-back or queued one counts when it fires, so
// a token gain must put back exactly the deliveries to its core for its
// block that have not arrived. Every multicast must park exactly its
// deliveries to cores whose L2 holds no copy of the block, in destination
// order.
//
// ops is read three bytes at a time, (op, x, y):
//   - op%4 < 2: requester op>>2&15 multicasts a GetS for block (op>>6)%3
//     to the cores of the mask y<<8|x (never itself);
//   - op%4 == 2: core x%16 gains a token for block y%3 (the block is made
//     resident first), and gives it up again if x&0x80 is set, keeping the
//     block without tokens, or drops the block if x&0x40 is set;
//   - op%4 == 3: the clock moves y%64 cycles on (a delivery takes up to
//     about 40), or with x&1 set every core drops what it has parked, as a
//     run that stops early does.
func FuzzParkTable(f *testing.F) {
	// Requester 1 parks block 40 at every core, core 15 (derived) and
	// core 4 (listed) gain a token for it at once, and the clock moves.
	f.Add([]byte{0x04, 0xff, 0xff, 0x02, 0x0f, 0x00, 0x02, 0x04, 0x00, 0x03, 0x00, 0x30})
	// Core 0 keeps block 41 without tokens, so requester 5's snoop to it
	// is delivered; core 0 then drops the block, and the next one parks.
	f.Add([]byte{0x02, 0x80, 0x01, 0x54, 0x01, 0x00, 0x03, 0x00, 0x40, 0x02, 0x40, 0x01, 0x54, 0x01, 0x00})
	// Requester 1 parks block 40 (derived to cores 8-15) and then 296
	// while 40's record is live, and core 12 gains a token for 296 after
	// 40's record has passed: the put-back needs the slot bit the retired
	// record shared.
	f.Add([]byte{0x04, 0x00, 0xff, 0x84, 0x00, 0xff, 0x03, 0x00, 0x0c, 0x04, 0x00, 0x01, 0x02, 0x0c, 0x02, 0x03, 0x00, 0x3f})
	// Gains after the arrivals leave the deliveries alone; an early stop
	// drops what is ahead.
	f.Add([]byte{0x3c, 0xff, 0xff, 0x03, 0x00, 0x3f, 0x02, 0x05, 0x00, 0x3d, 0xf0, 0x0f, 0x03, 0x01, 0x00, 0x02, 0x06, 0x00})
	// Several requesters of all four quadrants, interleaved.
	f.Add([]byte{0x00, 0xfe, 0xff, 0x14, 0xff, 0x7f, 0x28, 0x0f, 0xf0, 0x3d, 0x33, 0x33, 0x02, 0x09, 0x00, 0x03, 0x00, 0x05, 0x02, 0x8a, 0x00, 0x03, 0x00, 0x3f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		const nCores = 16
		h, _ := newQuadHarness(t, false)
		// Blocks 40 and 296 share a block slot: a record retiring must not
		// clear the slot bit another live record of its ring still needs.
		addrs := [3]mem.BlockAddr{40, 41, 296}
		var msgs [nCores][3]*token.Msg
		for r := range msgs {
			for i, a := range addrs {
				msgs[r][i] = &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[r].Node}
			}
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
				m := msgs[req][int(op>>6)%3]
				var dsts []mesh.NodeID
				var wantParked, wantQueued []int
				mask := int(y)<<8 | int(x)
				for dst := 0; dst < nCores; dst++ {
					if mask>>dst&1 == 0 || dst == req {
						continue
					}
					dsts = append(dsts, h.ctrls[dst].Node)
					if h.ctrls[dst].L2.Lookup(m.Addr) == nil {
						wantParked = append(wantParked, dst)
					} else {
						wantQueued = append(wantQueued, dst)
					}
				}
				q, n := h.ctrls[req].Multicast(mesh.Words(dsts...), m)
				if q != len(wantQueued) || n != len(wantParked) {
					t.Fatalf("step %d: %d queued, %d parked; want %d (cores %v), %d (cores %v)",
						i/3, q, n, len(wantQueued), wantQueued, len(wantParked), wantParked)
				}
				if n == 0 {
					break
				}
				kept := h.ctrls[req].LastParked()
				for j, p := range kept {
					if int(p.Dst) != wantParked[j] || p.Dom != quadOf(int(p.Dst)) {
						t.Fatalf("step %d: parked delivery %d went to core %d in domain %d, want core %d", i/3, j, p.Dst, p.Dom, wantParked[j])
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
					h.eng.RunUntil(h.eng.Now() + sim.Cycle(y%64))
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

// TestQuadParkMixesDerivedAndListed checks that the quadrant harness the
// park tests run on exercises both kinds of parked delivery: a broadcast
// from core 5 lists the three deliveries inside its quadrant and derives
// the twelve across quadrants, each in its destination's domain.
func TestQuadParkMixesDerivedAndListed(t *testing.T) {
	h, _ := newQuadHarness(t, false)
	c := h.ctrls[5]
	if q, n := c.Multicast(h.othersOf(5), &token.Msg{Kind: token.MsgGetS, Addr: 3, Src: c.Node}); q != 0 || n != 15 || c.Derived() != 12 {
		t.Fatalf("%d queued, %d parked, %d derived; want 0, 15, 12", q, n, c.Derived())
	}
	for i, p := range c.LastParked() {
		if p.Dom != quadOf(int(p.Dst)) || i > 0 && p.Dst <= c.LastParked()[i-1].Dst {
			t.Fatalf("parked delivery %d: %+v, out of order or in the wrong domain", i, p)
		}
	}
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
	dsts := mesh.Words(0, 2, 3)
	scout.ctrls[1].Multicast(dsts, getS(scout, a))
	parked := scout.ctrls[1].LastParked()
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
		if _, parked := h.ctrls[1].Multicast(mesh.Words(0), getS(h, other)); parked != 1 {
			t.Fatal("the second multicast parked nothing")
		}
		c3.L2.Insert(a, 1)
		c3.Handle(&token.Msg{Kind: token.MsgTokens, Addr: a, Src: h.ctrls[0].Node, Tokens: 1})
	})
	q, _ := h.ctrls[1].Multicast(dsts, getS(h, a))
	if parked := h.ctrls[1].LastParked(); q != 1 || len(parked) != 2 || parked[0].At != due || parked[1].At != due {
		t.Fatalf("%d queued, parked %+v; want 1 queued and cores 0 and 3 parked at cycle %d", q, parked, due)
	}
	h.run()
	putBacks, live := pt.Counts()
	if !fired || putBacks != 1 || live != 1 || c3.Stats.SnoopLookups != 1 || c3.SnoopLookups() != 1 {
		t.Fatalf("fired %v, %d put back, %d multicasts kept a live record, core 3 executed %d of %d lookups; want true, 1, 1, 1 of 1",
			fired, putBacks, live, c3.Stats.SnoopLookups, c3.SnoopLookups())
	}
}
