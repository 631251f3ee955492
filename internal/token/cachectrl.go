package token

import (
	"fmt"
	"math/bits"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// Txn is one outstanding coherence transaction (an L2 miss or a write
// upgrade). Cores are in-order and blocking, so each cache controller has
// at most one.
type Txn struct {
	Addr    mem.BlockAddr
	VM      mem.VMID
	Page    mem.PageType
	Write   bool
	Attempt int
	TID     uint64
	Issued  sim.Cycle

	doneFn     sim.HandlerFn
	doneArg    interface{}
	gotData    bool
	persistent bool
	completed  bool
}

// Stats are the per-controller protocol counters.
type Stats struct {
	// SnoopLookups counts external-request tag lookups performed at this
	// cache (the power-relevant quantity snoop filtering attacks).
	SnoopLookups uint64
	// SnoopsIssued counts cores snooped by this core's own requests,
	// including the requester itself — the paper's per-transaction snoop
	// cost (broadcast on 16 cores = 16; a 4-core vCPU map = 4).
	SnoopsIssued uint64
	// Transactions counts coherence transactions started.
	Transactions uint64
	// Retries counts transient-request re-issues.
	Retries uint64
	// Persistent counts persistent-request activations.
	Persistent uint64
	// Writebacks counts evicted blocks returned to memory.
	Writebacks uint64
}

// CacheCtrl is the cache-side Token Coherence controller of one core's
// private L2.
type CacheCtrl struct {
	Eng    *sim.Engine
	Net    *mesh.Network
	Node   mesh.NodeID
	Core   int
	L2     *cache.Cache
	P      Params
	Router Router

	// Cores is the machine's core count. Core i is mesh endpoint i, so a
	// broadcast snoops cores 0 to Cores-1 but this one.
	Cores int
	// MCNodes are the memory controllers; the home is chosen by block
	// address interleaving.
	MCNodes []mesh.NodeID

	Rng *sim.Rand

	Stats Stats

	// Obs, if set, watches token custody changes (invariant checking).
	Obs Observer
	// Esc, if set, is told when a transaction escalates past a filtering
	// threshold (graceful map degradation in the snoop filter).
	Esc EscalationSink

	// OnFill, if set, runs when a transaction completes and its block is
	// resident (the system layer uses it to designate RO provider copies).
	OnFill func(b *cache.Block, t *Txn)

	cur        *Txn
	txn        Txn // backing storage for cur: cores are blocking, so one suffices
	tidSeq     uint64
	persistent map[mem.BlockAddr]mesh.NodeID

	// sendFn/timeoutFn are the prebound event handlers for the two hot
	// schedulers (delayed response send, retry timeout), created once in
	// Init so arming them allocates nothing.
	sendFn    sim.HandlerFn
	timeoutFn sim.HandlerFn

	// msgs is the slab every message this controller sends is carved from.
	msgs Msgs
	// others is the broadcast set as core-bit words: every core but this
	// one. union holds a two-set route's cores for Msg.Dests.
	others, union []uint64

	// pt is the machine's snoop parking table (park.go; nil when parking
	// is off); snoopFn is the handler that delivers a snoop it puts back.
	// shadow and its counters are the table's checking mode.
	pt               *ParkTable
	snoopFn          sim.HandlerFn
	shadow           bool
	shadowChecked    uint64
	shadowPutBacks   uint64
	shadowViolations uint64

	// timer is the pending retry timeout's handle. With cancelTimers (set
	// by CancelTimeouts) complete cancels it, and cancelled keeps the cancelled
	// timers that may not have passed yet (timer.go). shadowTimers and its
	// counters are the checking mode of that cancellation.
	timer           sim.Timer
	cancelTimers    bool
	cancelled       []sim.Timer
	shadowTimers    bool
	timerChecked    uint64
	timerViolations uint64
}

// Init prepares internal state; call once after the fields are set.
func (c *CacheCtrl) Init() {
	c.persistent = make(map[mem.BlockAddr]mesh.NodeID)
	if c.Rng == nil {
		c.Rng = sim.NewRandTagged(0xC0DE, fmt.Sprintf("ctrl%d", c.Core))
	}
	if c.Core < 0 || c.Core >= c.Cores {
		panic(fmt.Sprintf("token: core %d of %d cores", c.Core, c.Cores))
	}
	nw := (c.Cores + 63) / 64
	c.others, c.union = make([]uint64, nw), make([]uint64, nw)
	for i := 0; i < c.Cores; i++ {
		if i != c.Core {
			c.others[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	c.cancelled = make([]sim.Timer, 0, 8)
	// A put-back delivery holds its message like a mesh delivery does, and
	// goes through Handle like one.
	c.snoopFn = func(arg interface{}, _ uint64) { c.Handle(arg) }
	// u packs (destination << 32 | bytes); the *Msg rides in arg, with
	// the sender's hold, until the send hands it to the deliveries.
	c.sendFn = func(arg interface{}, u uint64) {
		msg := arg.(*Msg)
		msg.Sent(c.Net.Send(c.Node, mesh.NodeID(u>>32), int(uint32(u)), msg))
	}
	// u is the TID the timeout was armed for.
	c.timeoutFn = func(_ interface{}, u uint64) {
		if c.shadowTimers {
			c.shadowTimeout(u)
		}
		if c.cur == nil || c.cur.TID != u || c.cur.completed {
			return
		}
		c.Stats.Retries++
		c.issueAttempt()
	}
}

// Busy reports whether a transaction is outstanding.
func (c *CacheCtrl) Busy() bool { return c.cur != nil }

// Outstanding describes the in-flight transaction, if any: its address,
// issue cycle, and attempt count. The transaction-completion invariant
// (internal/check) uses it to detect transactions stuck beyond an age bound.
func (c *CacheCtrl) Outstanding() (addr mem.BlockAddr, issued sim.Cycle, attempt int, ok bool) {
	if c.cur == nil {
		return 0, 0, 0, false
	}
	return c.cur.Addr, c.cur.Issued, c.cur.Attempt, true
}

// HomeMC returns the home memory controller endpoint for addr
// (block-interleaved).
func (c *CacheCtrl) HomeMC(a mem.BlockAddr) mesh.NodeID {
	return c.MCNodes[uint64(a)%uint64(len(c.MCNodes))]
}

// Start begins a transaction for addr. Once the request is satisfied,
// fn(arg, 0) runs after the fill latency: fn is a prebound handler and arg
// carries the caller's per-transaction state, so a miss allocates no
// completion closure. The caller must have established that this is a
// genuine miss or upgrade (Busy must be false).
func (c *CacheCtrl) Start(addr mem.BlockAddr, vm mem.VMID, page mem.PageType, write bool, fn sim.HandlerFn, arg interface{}) {
	if c.cur != nil {
		panic(fmt.Sprintf("token: core %d started txn while busy", c.Core))
	}
	c.txn = Txn{Addr: addr, VM: vm, Page: page, Write: write, doneFn: fn, doneArg: arg, Issued: c.Eng.Now()}
	t := &c.txn
	c.cur = t
	c.Stats.Transactions++
	if b := c.L2.Lookup(addr); b != nil && b.Tokens >= 1 {
		t.gotData = true // upgrade: data already valid locally
		need := 1
		if write {
			need = c.P.TotalTokens
		}
		if int(b.Tokens) >= need {
			// Already satisfiable without the network (e.g. a silent E->M
			// upgrade); no response will arrive, so complete here.
			c.complete(t, b)
			return
		}
	}
	c.issueAttempt()
}

func (c *CacheCtrl) issueAttempt() {
	t := c.cur
	t.Attempt++
	c.tidSeq++
	t.TID = c.tidSeq

	if t.Attempt > c.P.RetriesBeforePersistent {
		c.activatePersistent(t)
		return
	}

	var first, second []uint64
	if t.Attempt > c.P.RetriesBeforeBroadcast {
		if t.Attempt == c.P.RetriesBeforeBroadcast+1 && c.Esc != nil {
			c.Esc.NoteEscalation(t.VM, 1)
		}
		first = c.others
	} else {
		first, second = c.Router.Route(RouteInfo{
			Addr: t.Addr, VM: t.VM, Page: t.Page,
			Requester: c.Core, CoreNode: c.Node,
			Attempt: t.Attempt, Write: t.Write,
		})
	}
	c.Stats.SnoopsIssued += uint64(popcount(first)+popcount(second)) + 1 // +1: the requester itself

	kind := MsgGetS
	if t.Write {
		kind = MsgGetX
	}
	// Every unicast of the multicast shares one immutable slab Msg.
	req := Msg{Kind: kind, Addr: t.Addr, Src: c.Node, VM: t.VM,
		Page: t.Page, TID: t.TID, Write: t.Write}
	if kind == MsgGetS && t.Page == mem.PageROShared {
		// New copies the words: the next Route may overwrite them.
		req.Dests = first
		if len(second) > 0 {
			for i := range c.union {
				c.union[i] = word(first, i) | word(second, i)
			}
			req.Dests = c.union
		}
	}
	m := c.msgs.New(req)
	// One multicast sends the request to the snooped cores, then to the
	// home memory controller.
	m.Sent(c.multicast(first, second, c.HomeMC(t.Addr), m))

	c.armTimeout(t)
}

// popcount returns the number of cores in the set w.
func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// word returns word i of the set w, 0 past its end.
func word(w []uint64, i int) uint64 {
	if i < len(w) {
		return w[i]
	}
	return 0
}

// multicast sends snoop m to the cores of first, then of second, then to
// last (unless negative) in one mesh call. With parking on, the deliveries
// to cores that hold no copy of the block stay out of the queue, in a
// record at this requester (memory controllers have no keep bit). It
// returns how many deliveries it queued.
func (c *CacheCtrl) multicast(first, second []uint64, last mesh.NodeID, m *Msg) int {
	pt := c.pt
	if pt == nil {
		return c.Net.Multicast(c.Node, first, second, last, c.P.CtrlBytes, m, nil)
	}
	r := pt.begin(c.Core, m)
	q := c.Net.Multicast(c.Node, first, second, last, c.P.CtrlBytes, m, &r.k)
	return q + pt.end(c.Core, r, m)
}

func (c *CacheCtrl) armTimeout(t *Txn) {
	// Exponential backoff: attempt k waits base*2^(k-1), capped, so that a
	// loss storm doesn't re-synchronize every loser onto the same retry
	// cycle. Attempt 1 waits exactly TimeoutBase (fault-free timing is
	// unchanged from before backoff existed).
	wait := c.P.TimeoutBase
	if shift := t.Attempt - 1; shift > 0 {
		if shift > 6 {
			shift = 6 // avoid Cycle overflow on pathological attempt counts
		}
		wait = c.P.TimeoutBase << uint(shift)
		maxWait := c.P.TimeoutMax
		if maxWait == 0 {
			maxWait = 8 * c.P.TimeoutBase
		}
		if wait > maxWait {
			wait = maxWait
		}
	}
	if c.P.TimeoutJitter > 0 {
		wait += sim.Cycle(c.Rng.Intn(c.P.TimeoutJitter)) * sim.Cycle(t.Attempt)
	}
	c.timer = c.Eng.ScheduleTimer(wait, c.timeoutFn, nil, t.TID)
}

func (c *CacheCtrl) activatePersistent(t *Txn) {
	t.persistent = true
	c.Stats.Persistent++
	if c.Esc != nil {
		c.Esc.NoteEscalation(t.VM, 2)
	}
	c.send(c.HomeMC(t.Addr), c.P.CtrlBytes, c.msgs.New(Msg{
		Kind: MsgPersistentReq, Addr: t.Addr, Src: c.Node, VM: t.VM,
		Page: t.Page, TID: t.TID, Write: t.Write,
	}))
	// The activation broadcast costs a snoop at every core.
	c.Stats.SnoopsIssued += uint64(c.Cores)
	c.armTimeout(t) // re-arm in case activation itself races
}

// depart/arrive notify the token-custody observer (no-ops when unset or
// when the transfer carries nothing the ledger tracks).
func (c *CacheCtrl) depart(addr mem.BlockAddr, tokens int, owner bool) {
	if c.Obs != nil && (tokens > 0 || owner) {
		c.Obs.Depart(addr, tokens, owner)
	}
}

func (c *CacheCtrl) arrive(addr mem.BlockAddr, tokens int, owner bool) {
	if c.Obs != nil && (tokens > 0 || owner) {
		c.Obs.Arrive(addr, tokens, owner)
	}
}

// badCtrlMsgPanic is Handle's cold failure path; it keeps the fmt call out
// of the hot handler.
func badCtrlMsgPanic(k Kind) {
	panic(fmt.Sprintf("token: cache ctrl got %v", k))
}

// Handle processes a delivered coherence message and releases the
// delivery's hold on it; it is the mesh handler for this endpoint.
func (c *CacheCtrl) Handle(payload interface{}) {
	msg := payload.(*Msg)
	switch msg.Kind {
	case MsgGetS, MsgGetX:
		c.handleRequest(msg)
	case MsgData, MsgTokens:
		c.handleResponse(msg)
	case MsgPersistentActivate:
		c.handleActivate(msg)
	case MsgPersistentDeactivate:
		delete(c.persistent, msg.Addr)
	default:
		badCtrlMsgPanic(msg.Kind)
	}
	msg.Release()
}

// handleRequest applies the TokenB snoop-response rules.
func (c *CacheCtrl) handleRequest(msg *Msg) {
	c.Stats.SnoopLookups++
	b := c.L2.Lookup(msg.Addr)
	if c.shadow {
		c.shadowDeliver(msg.Src, b)
	}
	if b == nil || b.Tokens == 0 {
		// RO-shared provider copies answer reads even without spare
		// tokens; but a token-less block holds no data rights, so nothing
		// to do here.
		return
	}
	switch msg.Kind {
	case MsgGetS:
		switch {
		case b.Owner && b.Tokens >= 2:
			b.Tokens--
			c.depart(msg.Addr, 1, false)
			c.respond(msg.Src, MsgData, msg.Addr, 1, false, false)
		case b.Owner: // only the owner token left: transfer ownership
			info := c.L2.Invalidate(msg.Addr, b)
			c.depart(msg.Addr, info.Tokens, true)
			c.respond(msg.Src, MsgData, msg.Addr, info.Tokens, true, info.Dirty)
		case b.Provider && msg.Page == mem.PageROShared:
			// Designated per-VM provider for a content-shared block: send
			// data only; the token comes from memory (Section VI.B).
			c.respond(msg.Src, MsgData, msg.Addr, 0, false, false)
		}
	case MsgGetX:
		info := c.L2.Invalidate(msg.Addr, b)
		c.depart(msg.Addr, info.Tokens, info.Owner)
		kind := MsgTokens
		if info.Owner {
			kind = MsgData
		}
		c.respond(msg.Src, kind, msg.Addr, info.Tokens, info.Owner, info.Dirty)
	}
}

// respond sends dst a response of kind (MsgData carries the data block)
// for addr after the L2 access latency. The slot is filled in place; the
// event carries its hold until sendFn sends it.
func (c *CacheCtrl) respond(dst mesh.NodeID, kind Kind, addr mem.BlockAddr, tokens int, owner, dirty bool) {
	bytes := c.P.CtrlBytes
	if kind == MsgData {
		bytes = c.P.DataBytes
	}
	msg := c.msgs.Response(kind, addr, c.Node, tokens, owner, dirty)
	c.Eng.ScheduleFn(c.P.L2Latency, c.sendFn, msg, uint64(dst)<<32|uint64(uint32(bytes)))
}

// handleResponse accumulates arriving tokens/data into the outstanding
// transaction, forwarding them if a persistent entry for another node is
// active, or conserving them if no transaction wants them.
func (c *CacheCtrl) handleResponse(msg *Msg) {
	// The map is empty in every fault-free run: skip the lookup there.
	if len(c.persistent) > 0 {
		if holder, ok := c.persistent[msg.Addr]; ok && holder != c.Node {
			// Relayed tokens stay in flight: no Arrive/Depart on the ledger.
			c.forward(holder, msg)
			return
		}
	}
	c.arrive(msg.Addr, msg.Tokens, msg.Owner)
	t := c.cur
	if t == nil || t.Addr != msg.Addr || t.completed {
		// Stray response (e.g. a second holder answered a retried
		// request). Absorb into a resident block, else conserve tokens by
		// writing them back to memory.
		if b := c.L2.Lookup(msg.Addr); b != nil {
			c.gain(msg)
			b.Tokens += int16(msg.Tokens)
			b.Owner = b.Owner || msg.Owner
			b.Dirty = b.Dirty || msg.Dirty
			return
		}
		if msg.Tokens > 0 {
			c.writebackTokens(msg.Addr, msg.Tokens, msg.Owner, msg.Dirty)
		}
		return
	}

	b := c.ensureBlock(t)
	c.gain(msg)
	b.Tokens += int16(msg.Tokens)
	b.Owner = b.Owner || msg.Owner
	b.Dirty = b.Dirty || msg.Dirty
	if msg.Data {
		t.gotData = true
	}

	need := 1
	if t.Write {
		need = c.P.TotalTokens
	}
	if t.gotData && int(b.Tokens) >= need {
		c.complete(t, b)
	}
}

// gain runs before a response's tokens are added to the L2: a token gain
// puts the block's parked snoop deliveries to this cache back into the
// queue (ParkTable.putBack).
func (c *CacheCtrl) gain(msg *Msg) {
	if pt := c.pt; msg.Tokens > 0 && pt != nil {
		pt.putBack(c, msg.Addr)
	}
}

// ensureBlock returns the L2 block for the transaction, re-inserting it if
// a competing GetX invalidated it mid-flight.
func (c *CacheCtrl) ensureBlock(t *Txn) *cache.Block {
	if b := c.L2.Lookup(t.Addr); b != nil {
		return b
	}
	b, victim, evicted := c.L2.Insert(t.Addr, t.VM)
	if evicted {
		c.writeback(victim)
	}
	return b
}

func (c *CacheCtrl) complete(t *Txn, b *cache.Block) {
	t.completed = true
	// A completed coherence transaction is forward progress: under a fault
	// plan's delay storm one reference can legitimately burn through far
	// more events than usual (every retry re-floods the snoop domain), and
	// only the reference stream used to feed the watchdog. Auditing here
	// keeps the no-progress limit meaning "stuck", not "slow".
	c.Eng.Progress()
	if t.Write {
		b.Dirty = true
		if !b.Owner {
			panic("token: write completed without owner token")
		}
	}
	c.L2.Touch(b)
	if c.OnFill != nil {
		c.OnFill(b, t)
	}
	if t.persistent {
		c.send(c.HomeMC(t.Addr), c.P.CtrlBytes, c.msgs.New(Msg{Kind: MsgPersistentRelease, Addr: t.Addr, Src: c.Node}))
	}
	fn, arg := t.doneFn, t.doneArg
	c.cur = nil
	if c.cancelTimers {
		c.cancelTimeout()
	}
	c.Eng.ScheduleFn(c.P.FillLatency, fn, arg, 0)
}

// handleActivate services a persistent-request activation: forward every
// token we hold (and remember to forward future arrivals).
func (c *CacheCtrl) handleActivate(msg *Msg) {
	c.Stats.SnoopLookups++
	c.persistent[msg.Addr] = msg.Src
	if msg.Src == c.Node {
		return
	}
	b := c.L2.Lookup(msg.Addr)
	if b == nil || b.Tokens == 0 {
		return
	}
	info := c.L2.Invalidate(msg.Addr, b)
	c.depart(msg.Addr, info.Tokens, info.Owner)
	kind := MsgTokens
	if info.Owner {
		kind = MsgData
	}
	c.respond(msg.Src, kind, msg.Addr, info.Tokens, info.Owner, info.Dirty)
}

// forward relays tokens to a persistent requester.
func (c *CacheCtrl) forward(dst mesh.NodeID, msg *Msg) {
	out := c.msgs.New(*msg)
	out.Src = c.Node
	bytes := c.P.CtrlBytes
	if out.Data {
		bytes = c.P.DataBytes
	}
	c.send(dst, bytes, out)
}

// send sends m, a slot the caller holds, to dst now.
func (c *CacheCtrl) send(dst mesh.NodeID, bytes int, m *Msg) {
	m.Sent(c.Net.Send(c.Node, dst, bytes, m))
}

// HeldMsgs returns how many of the controller's message slots are held
// (Msgs.Held): after a full drain, every one is back on the free list.
func (c *CacheCtrl) HeldMsgs() int { return c.msgs.Held() }

// FlushVM invalidates every block the VM holds in this L2 and writes the
// tokens (and dirty data) back to memory — the selective-flush mechanism
// Section IV.B sketches as an alternative to waiting for natural eviction.
// It returns the number of blocks flushed.
func (c *CacheCtrl) FlushVM(vm mem.VMID) int {
	infos := c.L2.FlushVM(vm)
	for _, v := range infos {
		c.writeback(v)
	}
	return len(infos)
}

// writeback returns an evicted block's tokens (and dirty data) to memory.
func (c *CacheCtrl) writeback(v cache.EvictInfo) {
	if v.Tokens == 0 {
		return // a mid-fill block with no tokens carries no obligations
	}
	c.writebackTokens(v.Addr, v.Tokens, v.Owner, v.Dirty)
}

func (c *CacheCtrl) writebackTokens(addr mem.BlockAddr, tokens int, owner, dirty bool) {
	c.Stats.Writebacks++
	c.depart(addr, tokens, owner)
	kind := MsgWBTokens
	bytes := c.P.CtrlBytes
	if owner && dirty {
		kind = MsgWBData
		bytes = c.P.DataBytes
	}
	c.send(c.HomeMC(addr), bytes, c.msgs.Response(kind, addr, c.Node, tokens, owner, dirty))
}
