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
// shared by their L2s (member = core), and installs each core's elider.
// Call it before any cache is used.
func (h *harness) parkAll(shadow bool) *token.ParkTable {
	holders := cache.NewHolders(len(h.ctrls))
	for i, c := range h.ctrls {
		c.L2.ShareHolders(holders, i)
	}
	pt := token.NewParkTable(h.ctrls, holders, shadow)
	for i, c := range h.ctrls {
		h.net.SetElider(c.Node, pt.Elider(i))
	}
	return pt
}

// park offers the delivery of snoop m from requester req to core dst, due
// at (at, key), to dst's elider inside req's multicast, and reports whether
// the elider parked it.
func park(pt *token.ParkTable, req, dst int, m *token.Msg, at sim.Cycle, key uint64) (parked bool) {
	el := pt.Elider(dst)
	pt.Multicast(req, m, func() { parked = el(at, key, 0, m) })
	return parked
}

// TestTokenGainPutsBack covers both sites where a controller gains tokens
// — a stray response absorbed into a resident block, and a response to its
// own transaction — with a snoop for that block parked in a requester's
// record and due later: the gain must put the delivery back into the
// queue, withdrawing its parked counts, so the real snoop fires at its own
// (at, key). An elider called outside a multicast parks nothing.
func TestTokenGainPutsBack(t *testing.T) {
	t.Run("stray", func(t *testing.T) {
		h := newHarness(t, 2, nil)
		pt := h.parkAll(false)
		c := h.ctrls[0]
		a := mem.BlockAddr(5)
		c.L2.Insert(a, 1) // resident with no tokens
		getS := &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[1].Node}
		if pt.Elider(0)(h.eng.Now()+50, h.eng.NextKey(), 0, getS) {
			t.Fatal("a delivery outside any multicast was parked")
		}
		if !park(pt, 1, 0, getS, h.eng.Now()+50, h.eng.NextKey()) {
			t.Fatal("snoop to a block without tokens was not parked")
		}
		if c.SnoopLookups() != 1 || c.ParkedAhead() != 1 || c.Stats.SnoopLookups != 0 {
			t.Fatalf("parked: %d lookups (%d executed), %d ahead; want 1 (0), 1",
				c.SnoopLookups(), c.Stats.SnoopLookups, c.ParkedAhead())
		}
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
		pt := h.parkAll(false)
		c := h.ctrls[0]
		a := mem.BlockAddr(6)
		done := 0
		c.Start(a, 1, mem.PagePrivate, false, func(interface{}, uint64) { done++ }, nil)
		// Core 1's GetX, due long after memory's reply fills core 0.
		getX := &token.Msg{Kind: token.MsgGetX, Addr: a, Src: h.ctrls[1].Node, Write: true}
		if !park(pt, 1, 0, getX, h.eng.Now()+5000, h.eng.NextKey()) {
			t.Fatal("snoop to a block without tokens was not parked")
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
		if _, kept := pt.Counts(); kept != ringBlocks-1 {
			t.Fatalf("%v: %d multicasts kept live records, want %d", mode, kept, ringBlocks-1)
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
	pt := h.parkAll(false)
	now := h.eng.Now()
	// Requesters 1..3 each park three deliveries to core 0 (due 10, 20 and
	// 30 cycles on, shifted by the requester) and one to core 2.
	for req := 1; req <= 3; req++ {
		m := &token.Msg{Kind: token.MsgGetS, Addr: mem.BlockAddr(900 + req), Src: h.ctrls[req].Node}
		for i := 1; i <= 3; i++ {
			if !park(pt, req, 0, m, now+sim.Cycle(10*i+req), h.eng.NextKey()) {
				t.Fatal("a snoop to an absent block was not parked")
			}
		}
		if req != 2 && !park(pt, req, 2, m, now+100, h.eng.NextKey()) {
			t.Fatal("a snoop to an absent block was not parked")
		}
	}
	c0, c2 := h.ctrls[0], h.ctrls[2]
	if c0.ParkedAhead() != 9 || c2.ParkedAhead() != 2 || h.eng.Parked() != 11 {
		t.Fatalf("%d and %d ahead at cores 0 and 2, %d parked; want 9, 2, 11", c0.ParkedAhead(), c2.ParkedAhead(), h.eng.Parked())
	}
	// The warm-up snapshot point: the deliveries due by now+21 have passed.
	h.eng.RunUntil(now + 22)
	if got := c0.ParkedAhead(); got != 5 {
		t.Fatalf("%d deliveries to core 0 ahead after 22 cycles, want 5", got)
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
// state: opening records, parking deliveries, retiring done records and
// putting deliveries back into the queue on a token gain all reuse the
// requesters' rings and the engine's node pool. Each iteration has
// requester 1 park three snoops for a block that gains a token (put back
// and fired) and requester 2 three for one that never does, each in a
// record of its own, so every ring holds three live records; it checks the
// counts the parked and put-back deliveries leave behind.
func TestParkZeroAlloc(t *testing.T) {
	h := newHarness(t, 3, nil)
	pt := h.parkAll(false)
	c := h.ctrls[0]
	gained, idle := mem.BlockAddr(7), mem.BlockAddr(9)
	blk, _, _ := c.L2.Insert(gained, 1) // resident, no tokens: a stray token lands here
	getS := &token.Msg{Kind: token.MsgGetS, Addr: gained, Src: h.ctrls[1].Node}
	idleS := &token.Msg{Kind: token.MsgGetS, Addr: idle, Src: h.ctrls[2].Node}
	tok := &token.Msg{Kind: token.MsgTokens, Addr: gained, Src: h.ctrls[1].Node, Tokens: 1}
	iter := func() {
		now := h.eng.Now()
		lookups, fired := c.SnoopLookups(), h.eng.Fired()
		for i := sim.Cycle(0); i < 3; i++ {
			if !park(pt, 1, 0, getS, now+20+i, h.eng.NextKey()) || !park(pt, 2, 0, idleS, now+20+i, h.eng.NextKey()) {
				t.Fatal("a snoop to a block without tokens was not parked")
			}
		}
		c.Handle(tok) // the token gain: puts getS's three deliveries back
		h.eng.RunUntil(now + 100)
		blk.Tokens = 0
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
// and a put-back or queued one counts when it fires.
//
// ops is read three bytes at a time, (op, x, y):
//   - op%4 < 2: requester op>>2 multicasts a GetS for block x%3 to the
//     cores in y's low four bits (never itself), the delivery to core d due
//     x>>2 + d*(y>>4) cycles on;
//   - op%4 == 2: core x%4 gains a token for block y%3 (the block is made
//     resident first), and gives it up again if x&0x80 is set;
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		const nCores = 4
		h := newHarness(t, nCores, nil)
		pt := h.parkAll(false)
		// Blocks 40 and 296 share a block slot: a record retiring must not
		// clear the slot bit another live record of its ring still needs.
		addrs := [3]mem.BlockAddr{40, 41, 296}
		var msgs [nCores][3]*token.Msg
		els := make([]mesh.Elider, nCores)
		for r := range msgs {
			for i, a := range addrs {
				msgs[r][i] = &token.Msg{Kind: token.MsgGetS, Addr: a, Src: h.ctrls[r].Node}
			}
			els[r] = pt.Elider(r)
		}
		const (
			parked = iota
			putBack
			queued
			dropped
		)
		type delivery struct {
			at    sim.Cycle
			key   uint64
			addr  mem.BlockAddr
			state int
		}
		refs := make([][]delivery, nCores)
		deliver := func(arg interface{}, dst uint64) { h.ctrls[dst].Handle(arg) }
		// reached reports whether the engine has fired, or passed, (at, key).
		reached := func(at sim.Cycle, key uint64) bool {
			now := h.eng.Now()
			return at < now || at == now && key <= h.eng.CurKey()
		}
		check := func(step int) {
			t.Helper()
			var total uint64
			for dst, c := range h.ctrls {
				var ahead, lookups uint64
				for _, d := range refs[dst] {
					switch d.state {
					case parked:
						lookups++
						total++
						if !reached(d.at, d.key) {
							ahead++
						}
					case putBack, queued:
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
			now := h.eng.Now()
			switch op % 4 {
			case 0, 1:
				req := int(op>>2) % nCores
				m := msgs[req][x%3]
				pt.Multicast(req, m, func() {
					for dst := 0; dst < nCores; dst++ {
						if y>>dst&1 == 0 || dst == req {
							continue
						}
						at := now + sim.Cycle(x>>2) + sim.Cycle(dst)*sim.Cycle(y>>4)
						key := h.eng.NextKey()
						b := h.ctrls[dst].L2.Lookup(m.Addr)
						want := b == nil || b.Tokens == 0
						if got := els[dst](at, key, 0, m); got != want {
							t.Fatalf("step %d: core %d's elider parked=%v, want %v", i/3, dst, got, want)
						}
						d := delivery{at: at, key: key, addr: m.Addr, state: parked}
						if !want {
							d.state = queued
							h.eng.ScheduleKeyed(at, key, 0, deliver, m, uint64(dst))
						}
						refs[dst] = append(refs[dst], d)
					}
				})
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
				if x&0x80 != 0 {
					b.Tokens = 0
				}
			case 3:
				if x&1 == 0 {
					h.eng.RunUntil(now + sim.Cycle(y))
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
