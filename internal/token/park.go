package token

import (
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
// snoop, park keeps the delivery in a short per-controller list instead of
// the event queue, and counts it as one lookup and one fired event at once.
//
// The delivery is a no-op only if the L2 still holds no tokens for the
// block when it arrives. The only way this controller gains tokens is a
// response arriving in handleResponse (its two b.Tokens += sites), so each
// token gain puts every parked delivery for that block that has not yet
// passed back into the queue, with its original (at, key), and withdraws its
// counts: the real event then fires exactly where it would have, and counts
// itself. An entry that is never put back fired as a no-op. Entries whose
// (at, key) precede the engine's position have passed and are pruned.
//
// An entry copies the fields of the snoop that handleRequest reads (Kind,
// Addr, Src, Page) and keeps no *Msg: the mesh counts no hold for a delivery
// an elider kept (mesh.Network.Send), so the sender's slot goes back to its
// slab once the queued deliveries are handled. A put-back carves a message
// with those fields from this controller's slab. Entries hold no pointers,
// so the list needs no clearing and the collector never scans it.

// parkedSnoop is one parked delivery: the snoop's fields, due at cycle at
// with tie-break key key in executing domain dom.
type parkedSnoop struct {
	at   sim.Cycle
	key  uint64
	dom  int32
	kind Kind
	page mem.PageType
	addr mem.BlockAddr
	src  mesh.NodeID
}

func (p parkedSnoop) At() sim.Cycle { return p.at }
func (p parkedSnoop) Key() uint64   { return p.key }

// due is an entry a controller keeps for an event counted as fired before
// it was due: a parked delivery or a cancelled timeout (timer.go).
type due interface {
	At() sim.Cycle
	Key() uint64
}

// ahead returns how many entries of l have not passed eng's position: they
// were counted as fired, though their events would fire only later.
func ahead[T due](eng *sim.Engine, l []T) uint64 {
	var n uint64
	for _, d := range l {
		if !eng.Passed(d.At(), d.Key()) {
			n++
		}
	}
	return n
}

// keepAhead moves the entries of l that have not passed eng's position to
// its front, in order, and returns them: the passed ones are done.
//
//vsnoop:hotpath
func keepAhead[T due](eng *sim.Engine, l []T) []T {
	keep := l[:0]
	for _, d := range l {
		if !eng.Passed(d.At(), d.Key()) {
			keep = append(keep, d)
		}
	}
	return keep
}

// Parker returns the controller's mesh elider (park), for
// mesh.Network.SetElider on this controller's endpoint. Only a run whose
// every delivery goes through mesh.Network.Send unfaulted and whose event
// budget is unbounded may install it: a fault hook's drops and duplicates
// need real events, and a step budget counts executed events.
//
// shadow selects a checking mode for tests: every delivery stays a real
// event, and each one park would have parked and no token gain would have
// put back is checked at delivery to be a no-op (ShadowStats).
func (c *CacheCtrl) Parker(shadow bool) mesh.Elider {
	c.shadow = shadow
	return c.park
}

// park is the elider: it parks a GetS/GetX due at (at, key) in domain dom
// when the L2 holds no tokens for its block, and reports whether it did.
//
//vsnoop:hotpath
func (c *CacheCtrl) park(at sim.Cycle, key uint64, dom int32, payload interface{}) bool {
	msg := payload.(*Msg)
	if msg.Kind != MsgGetS && msg.Kind != MsgGetX {
		return false
	}
	// Most snoops find the block absent: the holder bit answers those
	// without touching the tag array.
	if c.L2.Holds(msg.Addr) {
		if b := c.L2.Lookup(msg.Addr); b != nil && b.Tokens > 0 {
			return false
		}
	}
	if len(c.parked) == cap(c.parked) {
		c.prune()
	}
	c.parked = append(c.parked, parkedSnoop{at: at, key: key, dom: dom,
		kind: msg.Kind, page: msg.Page, addr: msg.Addr, src: msg.Src})
	if c.shadow {
		return false
	}
	c.Stats.SnoopLookups++
	c.Eng.Park()
	return true
}

// prune drops the entries that have passed the engine's position: their
// deliveries are done.
//
//vsnoop:hotpath
func (c *CacheCtrl) prune() {
	c.parked = keepAhead(c.Eng, c.parked)
}

// unpark runs on a token gain for addr: every parked delivery for addr that
// has not passed goes back into the queue at its original (at, key), and
// its lookup and fired-event counts are withdrawn (the real event counts
// itself). Passed entries are pruned on the way.
//
//vsnoop:hotpath
func (c *CacheCtrl) unpark(addr mem.BlockAddr) {
	keep := c.parked[:0]
	for _, p := range c.parked {
		switch {
		case c.Eng.Passed(p.at, p.key):
		case p.addr != addr:
			keep = append(keep, p)
		case c.shadow:
			c.shadowPutBacks++
		default:
			c.Stats.SnoopLookups--
			c.Eng.Unpark()
			m := c.msgs.New(Msg{Kind: p.kind, Addr: p.addr, Src: p.src, Page: p.page})
			c.Eng.ScheduleKeyed(p.at, p.key, p.dom, c.snoopFn, m, 0)
		}
	}
	c.parked = keep
}

// ParkedAhead returns how many parked deliveries have not passed the
// engine's position: counted already, though their events would fire only
// later. A warm-up snapshot taken now leaves them out.
func (c *CacheCtrl) ParkedAhead() uint64 {
	if c.shadow {
		return 0
	}
	return ahead(c.Eng, c.parked)
}

// DropParked withdraws the counts of every parked delivery that has not
// passed, for a run that stopped early: those events would never have
// fired. It returns how many it dropped.
func (c *CacheCtrl) DropParked() uint64 {
	n := c.ParkedAhead()
	c.Stats.SnoopLookups -= n
	for i := uint64(0); i < n; i++ {
		c.Eng.Unpark()
	}
	c.parked = c.parked[:0]
	return n
}

// shadowDeliver checks, in shadow mode, a snoop delivered while the L2's
// block is b: if park recorded this delivery and no token gain put it back,
// it must be a no-op.
func (c *CacheCtrl) shadowDeliver(b *cache.Block) {
	now, key := c.Eng.Now(), c.Eng.CurKey()
	for i, p := range c.parked {
		if p.at != now || p.key != key {
			continue
		}
		c.shadowChecked++
		if b != nil && b.Tokens > 0 {
			c.shadowViolations++
		}
		last := len(c.parked) - 1
		c.parked[i] = c.parked[last]
		c.parked = c.parked[:last]
		return
	}
}

// ShadowStats returns, in shadow mode, how many deliveries park would have
// parked were checked at delivery, how many a token gain would have put
// back instead, and how many of the checked ones were not no-ops.
func (c *CacheCtrl) ShadowStats() (checked, putBacks, violations uint64) {
	return c.shadowChecked, c.shadowPutBacks, c.shadowViolations
}
