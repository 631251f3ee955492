package token

import (
	"math/bits"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// Parked snoop deliveries.
//
// A GetS or GetX delivered to an L2 that holds no tokens for the block does
// two things in handleRequest: SnoopLookups++ and a Lookup with no side
// effect. The snoop's count is the result; the event that delivers it is
// only how the simulator computes that count. So when the mesh sends such a
// snoop, the destination's elider keeps the delivery out of the event queue
// and counts it as one lookup and one fired event at once.
//
// The machine keeps those deliveries in one ParkTable, at the requester:
// issueAttempt opens the requester's record before its multicast and
// closes it after. A record holds the snoop's fields (Kind, Addr, Src,
// Page, all that handleRequest reads) once, the block's holder lane read
// once, a mask of the destinations it parked a delivery for, and each
// delivery's (at, key, dom, destination), contiguous. The destination's
// own state is touched only when its holder bit is set, to read its tokens;
// its parked lookups go into a per-core counter of the table.
//
// The delivery is a no-op only if the L2 still holds no tokens for the
// block when it arrives. The only way a controller gains tokens is a
// response arriving in handleResponse (its two b.Tokens += sites). Each
// token gain at core C for block A visits the requesters in A's block slot
// (a bitmask of the requesters that may hold a live record for a block
// hashing to that slot, set when a record closes and cleared when it
// retires) and puts every delivery to C for A that has not passed back
// into the queue, with its original (at, key), withdrawing its counts: the
// real event then fires exactly where it would have, and counts itself. A
// delivery that is never put back fired as a no-op.
//
// A requester's records sit in a small ring. A record is done once its
// latest (at, key) has passed; done records leave the ring's head when the
// requester next multicasts, and a record that is not done yet keeps its
// place, the ring growing (cold) when every slot is taken. Records hold no
// pointers into message slots: a put-back carves a message with the
// record's fields from the parking controller's slab.

// parkedDelivery is one delivery a record kept out of the queue: due at
// (at, key) in executing domain dom, at destination core dst. dst is
// noDst once the delivery was put back, dropped or shadow-checked.
type parkedDelivery struct {
	at  sim.Cycle
	key uint64
	dom int32
	dst int32
}

const noDst = -1

// parkRecord is one multicast's parked deliveries, kept at its requester.
type parkRecord struct {
	kind Kind
	page mem.PageType
	addr mem.BlockAddr
	src  mesh.NodeID
	// lane is the block's holder lane when the record opened: bit c is set
	// if core c's L2 held the block.
	lane uint64
	// mask has bit c set while the record may hold a delivery to core c
	// that a token gain would put back.
	mask uint64
	// lastAt, lastKey is the latest (at, key) of d: once it has passed,
	// every delivery of the record has.
	lastAt  sim.Cycle
	lastKey uint64
	d       []parkedDelivery
}

// parkRing is one requester's records, oldest first, in a ring buffer
// whose size is a power of two.
type parkRing struct {
	recs []parkRecord
	head int
	n    int
}

// parkSlots is the number of block slots: a token gain for block A
// visits only the requesters whose bit is set in slot A mod parkSlots.
const parkSlots = 256

// ParkTable is a machine's snoop parking state: one record per multicast
// at its requester, per-core parked lookup counts, and the block slots.
type ParkTable struct {
	eng     *sim.Engine
	holders *cache.Holders
	l2s     []*cache.Cache
	// lookups[c] counts the snoop lookups parked at core c and not
	// withdrawn; CacheCtrl.SnoopLookups adds it to Stats.SnoopLookups.
	lookups []uint64
	rings   []parkRing
	// slots[s] has bit r set while requester r's ring may hold a record
	// for a block in slot s. A bit is set when a record that parked
	// something closes, and cleared when the record retires and no other
	// record of the ring shares its slot.
	slots [parkSlots]uint64
	// coreOf maps a mesh endpoint to its core index (-1 for memory
	// controllers): shadowDeliver finds a snoop's requester by its Src.
	coreOf []int32
	// open is the record of the multicast in progress (nil between
	// multicasts); reqBit is its requester's bit.
	open   *parkRecord
	reqBit uint64
	shadow bool

	// putBacks counts the deliveries token gains put back (or, in shadow
	// mode, would have), and kept the multicasts that found their
	// requester's earlier records still live: the two rare paths.
	putBacks, kept uint64
}

// MaxParkCores bounds the cores a ParkTable serves: masks, block slots
// and holder lanes are one word each.
const MaxParkCores = 64

// NewParkTable builds the parking state of the token controllers ctrls,
// where ctrls[i].Core == i, and hooks every controller to it. holders, if
// not nil, is the presence bitset every L2 of ctrls shares with member =
// core index; without it, every parking decision reads the tags. Install
// each core's Elider on its mesh endpoint. Only a run whose every delivery
// goes through mesh.Network.Send unfaulted and whose event budget is
// unbounded may install them: a fault hook's drops and duplicates need real
// events, and a step budget counts executed events.
//
// shadow selects a checking mode for tests: every delivery stays a real
// event, and each one parking would have kept and no token gain would have
// put back is checked at delivery to be a no-op (CacheCtrl.ShadowStats).
func NewParkTable(ctrls []*CacheCtrl, holders *cache.Holders, shadow bool) *ParkTable {
	n := len(ctrls)
	if n == 0 || n > MaxParkCores {
		panic("token: a park table serves 1 to 64 cores")
	}
	if holders != nil && holders.Members() != n {
		panic("token: holder bitset members differ from the core count")
	}
	t := &ParkTable{
		eng: ctrls[0].Eng, holders: holders, shadow: shadow,
		l2s:     make([]*cache.Cache, n),
		lookups: make([]uint64, n),
		rings:   make([]parkRing, n),
	}
	maxNode := 0
	for i, c := range ctrls {
		if c.Core != i {
			panic("token: park table controllers out of core order")
		}
		t.l2s[i] = c.L2
		c.pt, c.shadow = t, shadow
		if int(c.Node) > maxNode {
			maxNode = int(c.Node)
		}
		t.rings[i].recs = newParkRecords(2, n)
	}
	t.coreOf = make([]int32, maxNode+1)
	for i := range t.coreOf {
		t.coreOf[i] = -1
	}
	for i, c := range ctrls {
		t.coreOf[c.Node] = int32(i)
	}
	return t
}

// newParkRecords makes n records with room for one delivery per core.
func newParkRecords(n, cores int) []parkRecord {
	recs := make([]parkRecord, n)
	for i := range recs {
		recs[i].d = make([]parkedDelivery, 0, cores)
	}
	return recs
}

// Elider returns core's mesh elider, for mesh.Network.SetElider on that
// core's endpoint.
func (t *ParkTable) Elider(core int) mesh.Elider {
	dst := int32(core)
	return func(at sim.Cycle, key uint64, dom int32, _ interface{}) bool {
		return t.park(dst, at, key, dom)
	}
}

// begin opens requester req's record for its multicast of snoop m, reading
// the block's holder lane once. Done records leave the ring's head first.
func (t *ParkTable) begin(req int, m *Msg) {
	g := &t.rings[req]
	if g.n > 0 {
		t.retire(g, req)
	}
	if g.n > 0 {
		t.kept++
		if g.n == len(g.recs) {
			g.grow(len(t.rings))
		}
	}
	r := &g.recs[(g.head+g.n)&(len(g.recs)-1)]
	r.kind, r.page, r.addr, r.src = m.Kind, m.Page, m.Addr, m.Src
	r.lane = ^uint64(0)
	if t.holders != nil {
		r.lane = t.holders.Lane(m.Addr)
	}
	r.mask, r.lastAt, r.lastKey = 0, 0, 0
	r.d = r.d[:0]
	t.open, t.reqBit = r, 1<<uint(req)
}

// end closes requester req's open record; a record that parked nothing
// gives its ring slot back.
func (t *ParkTable) end(req int) {
	if r := t.open; len(r.d) > 0 {
		t.rings[req].n++
		t.slots[uint64(r.addr)%parkSlots] |= t.reqBit
	}
	t.open = nil
}

// retire pops requester req's done records off its ring's head, clearing
// the requester's bit in each one's block slot unless a record still in
// the ring shares the slot.
func (t *ParkTable) retire(g *parkRing, req int) {
	mask := len(g.recs) - 1
	for g.n > 0 {
		r := &g.recs[g.head]
		if !t.eng.Passed(r.lastAt, r.lastKey) {
			return
		}
		g.head = (g.head + 1) & mask
		g.n--
		s := uint64(r.addr) % parkSlots
		shared := false
		for i := 0; i < g.n; i++ {
			if uint64(g.recs[(g.head+i)&mask].addr)%parkSlots == s {
				shared = true
			}
		}
		if !shared {
			t.slots[s] &^= 1 << uint(req)
		}
	}
}

// grow doubles a full ring, keeping its records in order: the cold path of
// a requester that multicasts again before its earlier records are done.
func (g *parkRing) grow(cores int) {
	recs := newParkRecords(2*len(g.recs), cores)
	for i := 0; i < g.n; i++ {
		recs[i] = g.recs[(g.head+i)&(len(g.recs)-1)]
	}
	g.recs, g.head = recs, 0
}

// park is core dst's elider: it parks a delivery of the open multicast due
// at (at, key) in domain dom when dst's L2 holds no tokens for the block,
// and reports whether it did. Outside a multicast it parks nothing.
func (t *ParkTable) park(dst int32, at sim.Cycle, key uint64, dom int32) bool {
	r := t.open
	if r == nil {
		return false
	}
	// Most snoops find the block absent: the holder lane answers those
	// without touching the destination's tags.
	if r.lane>>uint(dst)&1 != 0 {
		if b := t.l2s[dst].Lookup(r.addr); b != nil && b.Tokens > 0 {
			return false
		}
	}
	r.d = append(r.d, parkedDelivery{at: at, key: key, dom: dom, dst: dst})
	r.mask |= 1 << uint(dst)
	if at > r.lastAt || at == r.lastAt && key > r.lastKey {
		r.lastAt, r.lastKey = at, key
	}
	if t.shadow {
		return false
	}
	t.lookups[dst]++
	t.eng.Park()
	return true
}

// putBack runs on a token gain for addr at c: every parked delivery to c
// for addr that has not passed goes back into the queue at its original
// (at, key), and its lookup and fired-event counts are withdrawn (the real
// event counts itself). Only the requesters in addr's block slot are
// visited.
func (t *ParkTable) putBack(c *CacheCtrl, addr mem.BlockAddr) {
	for reqs := t.slots[uint64(addr)%parkSlots]; reqs != 0; reqs &= reqs - 1 {
		t.putBackFrom(&t.rings[bits.TrailingZeros64(reqs)], c, addr)
	}
}

// putBackFrom puts back requester ring g's deliveries to c for addr.
func (t *ParkTable) putBackFrom(g *parkRing, c *CacheCtrl, addr mem.BlockAddr) {
	dst := int32(c.Core)
	bit := uint64(1) << uint(dst)
	for i := 0; i < g.n; i++ {
		r := &g.recs[(g.head+i)&(len(g.recs)-1)]
		if r.addr != addr || r.mask&bit == 0 {
			continue
		}
		r.mask &^= bit
		for j := range r.d {
			p := &r.d[j]
			if p.dst != dst || t.eng.Passed(p.at, p.key) {
				continue
			}
			p.dst = noDst
			t.putBacks++
			if t.shadow {
				c.shadowPutBacks++
				continue
			}
			t.lookups[dst]--
			t.eng.Unpark()
			m := c.msgs.New(Msg{Kind: r.kind, Addr: r.addr, Src: r.src, Page: r.page})
			t.eng.ScheduleKeyed(p.at, p.key, p.dom, c.snoopFn, m, 0)
		}
	}
}

// Counts returns how many deliveries token gains have put back (in shadow
// mode, would have), and how many multicasts found their requester's
// earlier records still holding deliveries in flight.
func (t *ParkTable) Counts() (putBacks, kept uint64) { return t.putBacks, t.kept }

// ahead returns how many deliveries parked to dst have not passed the
// engine's position, and with drop set forgets them.
func (t *ParkTable) ahead(dst int32, drop bool) uint64 {
	var n uint64
	bit := uint64(1) << uint(dst)
	for ri := range t.rings {
		g := &t.rings[ri]
		for i := 0; i < g.n; i++ {
			r := &g.recs[(g.head+i)&(len(g.recs)-1)]
			if r.mask&bit == 0 {
				continue
			}
			for j := range r.d {
				if p := &r.d[j]; p.dst == dst && !t.eng.Passed(p.at, p.key) {
					n++
					if drop {
						p.dst = noDst
					}
				}
			}
		}
	}
	return n
}

// SnoopLookups returns the external-request tag lookups this cache
// performed: Stats.SnoopLookups, which handleRequest counts, plus the
// parked deliveries counted at send time and not withdrawn.
func (c *CacheCtrl) SnoopLookups() uint64 {
	if c.pt == nil {
		return c.Stats.SnoopLookups
	}
	return c.Stats.SnoopLookups + c.pt.lookups[c.Core]
}

// ParkedAhead returns how many deliveries parked to this controller have
// not passed the engine's position: counted already, though their events
// would fire only later. A warm-up snapshot taken now leaves them out.
func (c *CacheCtrl) ParkedAhead() uint64 {
	if c.pt == nil || c.shadow {
		return 0
	}
	return c.pt.ahead(int32(c.Core), false)
}

// DropParked withdraws the counts of every delivery parked to this
// controller that has not passed, for a run that stopped early: those
// events would never have fired. It returns how many it dropped.
func (c *CacheCtrl) DropParked() uint64 {
	if c.pt == nil || c.shadow {
		return 0
	}
	n := c.pt.ahead(int32(c.Core), true)
	c.pt.lookups[c.Core] -= n
	for i := uint64(0); i < n; i++ {
		c.Eng.Unpark()
	}
	return n
}

// shadowDeliver checks, in shadow mode, a snoop from src delivered while
// the L2's block is b: if parking recorded this delivery and no token gain
// put it back, it must be a no-op.
func (c *CacheCtrl) shadowDeliver(src mesh.NodeID, b *cache.Block) {
	t := c.pt
	if int(src) >= len(t.coreOf) || t.coreOf[src] < 0 {
		return
	}
	g := &t.rings[t.coreOf[src]]
	dst := int32(c.Core)
	now, key := t.eng.Now(), t.eng.CurKey()
	for i := 0; i < g.n; i++ {
		r := &g.recs[(g.head+i)&(len(g.recs)-1)]
		for j := range r.d {
			p := &r.d[j]
			if p.dst != dst || p.at != now || p.key != key {
				continue
			}
			c.shadowChecked++
			if b != nil && b.Tokens > 0 {
				c.shadowViolations++
			}
			p.dst = noDst
			return
		}
	}
}

// ShadowStats returns, in shadow mode, how many deliveries parking would
// have kept were checked at delivery, how many a token gain would have put
// back instead, and how many of the checked ones were not no-ops.
func (c *CacheCtrl) ShadowStats() (checked, putBacks, violations uint64) {
	return c.shadowChecked, c.shadowPutBacks, c.shadowViolations
}
