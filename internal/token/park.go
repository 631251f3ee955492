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
// only how the simulator computes that count. So the machine keeps such
// deliveries out of the event queue and counts each one as one lookup and
// one fired event at once.
//
// Which ones is decided once per multicast, before the send, from the
// block's holder lane alone: an L2 that holds no copy of the block holds no
// tokens for it. issueAttempt opens the requester's record (begin), whose
// mesh.Kept carries the keep mask of every core outside the lane; the mesh
// multicast records each kept delivery there instead of queueing it; and
// end counts them, the derived ones by mask. A lane holder always
// gets a real delivery, also one that holds the block without tokens: that
// delivery fires as a no-op and counts one lookup and one fired event, as
// a parked one would.
//
// A kept delivery that travels at zero-load latency (cross-domain, or on
// the source's own router) is derived: the multicast neither visits nor
// lists it, and the record recomputes its (at, key, dom) when it needs it
// (mesh.Network.DerivedDelivery) from the send cycle, the send sets and
// the call's first key. Only the contended ones, intra-domain deliveries
// whose route reserves links, are listed. Shadow mode and a fault hook
// derive nothing.
//
// The machine keeps those deliveries in one ParkTable, at the requester. A
// record holds the snoop's fields (Kind, Addr, Src, Page, all that
// handleRequest reads) once, a mask of the destinations it parked a
// delivery for, and its mesh.Kept. Parked lookups go into per-core
// counters of the table.
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

// noDst is a listed parked delivery's Dst once it was put back, dropped
// or shadow-checked.
const noDst = -1

// parkRecord is one multicast's parked deliveries, kept at its requester.
type parkRecord struct {
	kind Kind
	page mem.PageType
	addr mem.BlockAddr
	src  mesh.NodeID
	// mask has bit c set while the record may hold a delivery to core c
	// that a token gain would put back.
	mask uint64
	// k holds the deliveries to cores, listed and derived (core c is mesh
	// endpoint c), and their latest (at, key): once it has passed, every
	// delivery of the record has. A put-back or dropped derived delivery
	// leaves k.Derived.
	k mesh.Kept
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
	net     *mesh.Network
	holders *cache.Holders
	// all has bit c set for every core c.
	all uint64
	// ctrls[c] is core c's controller: shadow mode queues a delivery to
	// it through its snoopFn.
	ctrls []*CacheCtrl
	// lookups[c] counts the snoop lookups parked at core c and not
	// withdrawn (put back or dropped); CacheCtrl.SnoopLookups adds it to
	// Stats.SnoopLookups.
	lookups []uint64
	rings   []parkRing
	// slots[s] has bit r set while requester r's ring may hold a record
	// for a block in slot s. A bit is set when a record that parked
	// something closes, and cleared when the record retires and no other
	// record of the ring shares its slot.
	slots  [parkSlots]uint64
	shadow bool

	// putBacks counts the deliveries token gains put back (or, in shadow
	// mode, would have), and live the multicasts that found their
	// requester's earlier records still live: the two rare paths.
	putBacks, live uint64
}

// MaxParkCores bounds the cores a ParkTable serves: masks, block slots
// and holder lanes are one word each.
const MaxParkCores = 64

// NewParkTable builds the parking state of the token controllers ctrls,
// where ctrls[i].Core == i and ctrls[i].Node is mesh endpoint i, and hooks
// every controller to it. holders is the presence bitset every L2 of ctrls
// shares with member = core index. Only a run whose every snoop goes
// through issueAttempt unfaulted and whose event budget is unbounded may
// park: a fault hook's drops and duplicates need real events, and a step
// budget counts executed events.
//
// shadow selects a checking mode for tests: every delivery stays a real
// event, and each one parking would have kept and no token gain would have
// put back is checked at delivery to be a no-op (CacheCtrl.ShadowStats).
func NewParkTable(ctrls []*CacheCtrl, holders *cache.Holders, shadow bool) *ParkTable {
	n := len(ctrls)
	if n == 0 || n > MaxParkCores {
		panic("token: a park table serves 1 to 64 cores")
	}
	if holders == nil || holders.Members() != n {
		panic("token: a park table needs a holder bitset with one member per core")
	}
	t := &ParkTable{
		eng: ctrls[0].Eng, net: ctrls[0].Net, holders: holders, shadow: shadow,
		all:     ^uint64(0) >> uint(MaxParkCores-n),
		ctrls:   ctrls,
		lookups: make([]uint64, n),
		rings:   make([]parkRing, n),
	}
	for i, c := range ctrls {
		if c.Core != i || c.Node != mesh.NodeID(i) {
			panic("token: park table controllers out of core and endpoint order")
		}
		c.pt, c.shadow = t, shadow
		t.rings[i].recs = newParkRecords(2, n)
	}
	return t
}

// newParkRecords makes n records with room for one listed delivery per
// core.
func newParkRecords(n, cores int) []parkRecord {
	recs := make([]parkRecord, n)
	for i := range recs {
		recs[i].k.List = make([]mesh.Delivery, 0, cores)
	}
	return recs
}

// begin opens requester req's record for its multicast of snoop m and
// returns it; its mesh.Kept is for mesh.Network.Multicast: the keep mask
// is every core whose L2 holds no copy of the block, and it derives what
// it can unless the table is in shadow mode. Done records leave the
// ring's head first.
func (t *ParkTable) begin(req int, m *Msg) *parkRecord {
	g := &t.rings[req]
	if g.n > 0 {
		t.retire(g, req)
	}
	if g.n > 0 {
		t.live++
		if g.n == len(g.recs) {
			g.grow(len(t.rings))
		}
	}
	r := g.next()
	r.kind, r.page, r.addr, r.src = m.Kind, m.Page, m.Addr, m.Src
	r.k.Keep, r.k.Derive = t.all&^t.holders.Lane(m.Addr), !t.shadow
	return r
}

// next returns the ring slot past its last record: the record a multicast
// in progress fills, which joins the ring if it parks something.
func (g *parkRing) next() *parkRecord {
	return &g.recs[(g.head+g.n)&(len(g.recs)-1)]
}

// end closes requester req's open record r of snoop m, into which the
// multicast kept its deliveries, and counts each one as a lookup at its
// destination (the derived ones by mask) and a fired event. A record that kept nothing gives its ring slot back. In
// shadow mode end queues the kept deliveries instead of counting them; it
// returns how many it queued.
func (t *ParkTable) end(req int, r *parkRecord, m *Msg) int {
	k := &r.k
	if k.Mask == 0 {
		return 0
	}
	r.mask = k.Mask
	t.rings[req].n++
	t.slots[uint64(r.addr)%parkSlots] |= 1 << uint(req)
	if t.shadow {
		for _, p := range k.List {
			t.eng.ScheduleKeyed(p.At, p.Key, p.Dom, t.ctrls[p.Dst].snoopFn, m, 0)
		}
		return len(k.List)
	}
	lookups := t.lookups
	for m := k.Derived; m != 0; m &= m - 1 {
		lookups[bits.TrailingZeros64(m)]++
	}
	for _, p := range k.List {
		lookups[p.Dst]++
	}
	t.eng.Park(uint64(k.Count()))
	return 0
}

// retire pops requester req's done records off its ring's head, clearing
// the requester's bit in each one's block slot unless a record still in
// the ring shares the slot.
func (t *ParkTable) retire(g *parkRing, req int) {
	mask := len(g.recs) - 1
	for g.n > 0 {
		r := &g.recs[g.head]
		if !t.eng.Passed(r.k.LastAt, r.k.LastKey) {
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
		if r.k.Derived&bit != 0 {
			r.k.Derived &^= bit
			if p := t.net.DerivedDelivery(&r.k, mesh.NodeID(dst)); !t.eng.Passed(p.At, p.Key) {
				t.putBackOne(c, r, p)
			}
			continue
		}
		for j := range r.k.List {
			p := &r.k.List[j]
			if p.Dst != dst || t.eng.Passed(p.At, p.Key) {
				continue
			}
			t.putBackOne(c, r, *p)
			p.Dst = noDst
		}
	}
}

// putBackOne puts record r's parked delivery p to c back into the queue.
func (t *ParkTable) putBackOne(c *CacheCtrl, r *parkRecord, p mesh.Delivery) {
	t.putBacks++
	if t.shadow {
		c.shadowPutBacks++
		return
	}
	t.lookups[c.Core]--
	t.eng.Unpark(1)
	m := c.msgs.New(Msg{Kind: r.kind, Addr: r.addr, Src: r.src, Page: r.page})
	t.eng.ScheduleKeyed(p.At, p.Key, p.Dom, c.snoopFn, m, 0)
}

// Counts returns how many deliveries token gains have put back (in shadow
// mode, would have), and how many multicasts found their requester's
// earlier records still holding deliveries in flight.
func (t *ParkTable) Counts() (putBacks, live uint64) { return t.putBacks, t.live }

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
			if r.k.Derived&bit != 0 {
				if p := t.net.DerivedDelivery(&r.k, mesh.NodeID(dst)); !t.eng.Passed(p.At, p.Key) {
					n++
					if drop {
						r.k.Derived &^= bit
					}
				}
				continue
			}
			for j := range r.k.List {
				if p := &r.k.List[j]; p.Dst == dst && !t.eng.Passed(p.At, p.Key) {
					n++
					if drop {
						p.Dst = noDst
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
	c.Eng.Unpark(n)
	return n
}

// shadowDeliver checks, in shadow mode, a snoop from src delivered while
// the L2's block is b: if parking recorded this delivery and no token gain
// put it back, it must be a no-op.
func (c *CacheCtrl) shadowDeliver(src mesh.NodeID, b *cache.Block) {
	t := c.pt
	if int(src) >= len(t.rings) {
		return // a memory controller: core c is endpoint c
	}
	g := &t.rings[src]
	dst := int32(c.Core)
	now, key := t.eng.Now(), t.eng.CurKey()
	for i := 0; i < g.n; i++ {
		r := &g.recs[(g.head+i)&(len(g.recs)-1)]
		for j := range r.k.List {
			p := &r.k.List[j]
			if p.Dst != dst || p.At != now || p.Key != key {
				continue
			}
			c.shadowChecked++
			if b != nil && b.Tokens > 0 {
				c.shadowViolations++
			}
			p.Dst = noDst
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
