package token

import (
	"fmt"

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

	// AllCores lists every other core's endpoint (broadcast fallback).
	AllCores []mesh.NodeID
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
}

// Init prepares internal state; call once after the fields are set.
func (c *CacheCtrl) Init() {
	c.persistent = make(map[mem.BlockAddr]mesh.NodeID)
	if c.Rng == nil {
		c.Rng = sim.NewRandTagged(0xC0DE, fmt.Sprintf("ctrl%d", c.Core))
	}
	// u packs (destination << 32 | bytes); the already-boxed Msg rides in arg.
	c.sendFn = func(arg interface{}, u uint64) {
		c.Net.Send(c.Node, mesh.NodeID(u>>32), int(uint32(u)), arg)
	}
	// u is the TID the timeout was armed for.
	c.timeoutFn = func(_ interface{}, u uint64) {
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
		if b.Tokens >= need {
			// Already satisfiable without the network (e.g. a silent E->M
			// upgrade); no response will arrive, so complete here.
			c.complete(t, b)
			return
		}
	}
	c.issueAttempt()
}

//vsnoop:hotpath
func (c *CacheCtrl) issueAttempt() {
	t := c.cur
	t.Attempt++
	c.tidSeq++
	t.TID = c.tidSeq

	if t.Attempt > c.P.RetriesBeforePersistent {
		c.activatePersistent(t)
		return
	}

	var dests []mesh.NodeID
	if t.Attempt > c.P.RetriesBeforeBroadcast {
		if t.Attempt == c.P.RetriesBeforeBroadcast+1 && c.Esc != nil {
			c.Esc.NoteEscalation(t.VM, 1)
		}
		dests = c.AllCores
	} else {
		dests = c.Router.Route(RouteInfo{
			Addr: t.Addr, VM: t.VM, Page: t.Page,
			Requester: c.Core, CoreNode: c.Node,
			Attempt: t.Attempt, Write: t.Write,
		})
	}
	c.Stats.SnoopsIssued += uint64(len(dests)) + 1 // +1: the requester itself

	kind := MsgGetS
	if t.Write {
		kind = MsgGetX
	}
	// Box the request Msg into an interface value once; every unicast of the
	// multicast shares it (payloads are read-only by protocol convention).
	//lint:alloc deliberate one-boxing per multicast: N unicasts share this single escaped Msg
	var payload interface{} = Msg{Kind: kind, Addr: t.Addr, Src: c.Node, VM: t.VM,
		Page: t.Page, TID: t.TID, Dests: dests, Write: t.Write}
	for _, d := range dests {
		c.Net.Send(c.Node, d, c.P.CtrlBytes, payload)
	}
	c.Net.Send(c.Node, c.HomeMC(t.Addr), c.P.CtrlBytes, payload)

	c.armTimeout(t)
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
	c.Eng.ScheduleFn(wait, c.timeoutFn, nil, t.TID)
}

func (c *CacheCtrl) activatePersistent(t *Txn) {
	t.persistent = true
	c.Stats.Persistent++
	if c.Esc != nil {
		c.Esc.NoteEscalation(t.VM, 2)
	}
	c.Net.Send(c.Node, c.HomeMC(t.Addr), c.P.CtrlBytes, Msg{
		Kind: MsgPersistentReq, Addr: t.Addr, Src: c.Node, VM: t.VM,
		Page: t.Page, TID: t.TID, Write: t.Write, Dests: c.AllCores,
	})
	// The activation broadcast costs a snoop at every core.
	c.Stats.SnoopsIssued += uint64(len(c.AllCores)) + 1
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
// of the annotated hot function.
func badCtrlMsgPanic(k Kind) {
	panic(fmt.Sprintf("token: cache ctrl got %v", k))
}

// Handle processes a delivered coherence message; it is the mesh handler
// for this endpoint.
//vsnoop:hotpath
func (c *CacheCtrl) Handle(payload interface{}) {
	msg := payload.(Msg)
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
}

// handleRequest applies the TokenB snoop-response rules.
//vsnoop:hotpath
func (c *CacheCtrl) handleRequest(msg Msg) {
	c.Stats.SnoopLookups++
	b := c.L2.Lookup(msg.Addr)
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
			c.respond(msg.Src, Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node,
				Tokens: 1, Data: true})
		case b.Owner: // only the owner token left: transfer ownership
			info := c.L2.Invalidate(b)
			c.depart(msg.Addr, info.Tokens, true)
			c.respond(msg.Src, Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node,
				Tokens: info.Tokens, Owner: true, Dirty: info.Dirty, Data: true})
		case b.Provider && msg.Page == mem.PageROShared:
			// Designated per-VM provider for a content-shared block: send
			// data only; the token comes from memory (Section VI.B).
			c.respond(msg.Src, Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node,
				Tokens: 0, Data: true})
		}
	case MsgGetX:
		info := c.L2.Invalidate(b)
		c.depart(msg.Addr, info.Tokens, info.Owner)
		kind := MsgTokens
		if info.Owner {
			kind = MsgData
		}
		c.respond(msg.Src, Msg{Kind: kind, Addr: msg.Addr, Src: c.Node,
			Tokens: info.Tokens, Owner: info.Owner, Dirty: info.Dirty,
			Data: info.Owner})
	}
}

// respond sends a response after the L2 access latency.
//vsnoop:hotpath
func (c *CacheCtrl) respond(dst mesh.NodeID, msg Msg) {
	bytes := c.P.CtrlBytes
	if msg.Data {
		bytes = c.P.DataBytes
	}
	//lint:alloc deliberate one-boxing: the Msg escapes exactly once here and the delayed send reuses the boxed value
	var payload interface{} = msg
	c.Eng.ScheduleFn(c.P.L2Latency, c.sendFn, payload, uint64(dst)<<32|uint64(uint32(bytes)))
}

// handleResponse accumulates arriving tokens/data into the outstanding
// transaction, forwarding them if a persistent entry for another node is
// active, or conserving them if no transaction wants them.
//vsnoop:hotpath
func (c *CacheCtrl) handleResponse(msg Msg) {
	if holder, ok := c.persistent[msg.Addr]; ok && holder != c.Node {
		// Relayed tokens stay in flight: no Arrive/Depart on the ledger.
		c.forward(holder, msg)
		return
	}
	c.arrive(msg.Addr, msg.Tokens, msg.Owner)
	t := c.cur
	if t == nil || t.Addr != msg.Addr || t.completed {
		// Stray response (e.g. a second holder answered a retried
		// request). Absorb into a resident block, else conserve tokens by
		// writing them back to memory.
		if b := c.L2.Lookup(msg.Addr); b != nil {
			b.Tokens += msg.Tokens
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
	b.Tokens += msg.Tokens
	b.Owner = b.Owner || msg.Owner
	b.Dirty = b.Dirty || msg.Dirty
	if msg.Data {
		t.gotData = true
	}

	need := 1
	if t.Write {
		need = c.P.TotalTokens
	}
	if t.gotData && b.Tokens >= need {
		c.complete(t, b)
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
		c.Net.Send(c.Node, c.HomeMC(t.Addr), c.P.CtrlBytes,
			Msg{Kind: MsgPersistentRelease, Addr: t.Addr, Src: c.Node})
	}
	fn, arg := t.doneFn, t.doneArg
	c.cur = nil
	c.Eng.ScheduleFn(c.P.FillLatency, fn, arg, 0)
}

// handleActivate services a persistent-request activation: forward every
// token we hold (and remember to forward future arrivals).
func (c *CacheCtrl) handleActivate(msg Msg) {
	c.Stats.SnoopLookups++
	c.persistent[msg.Addr] = msg.Src
	if msg.Src == c.Node {
		return
	}
	b := c.L2.Lookup(msg.Addr)
	if b == nil || b.Tokens == 0 {
		return
	}
	info := c.L2.Invalidate(b)
	c.depart(msg.Addr, info.Tokens, info.Owner)
	kind := MsgTokens
	if info.Owner {
		kind = MsgData
	}
	c.respond(msg.Src, Msg{Kind: kind, Addr: msg.Addr, Src: c.Node,
		Tokens: info.Tokens, Owner: info.Owner, Dirty: info.Dirty,
		Data: info.Owner})
}

// forward relays tokens to a persistent requester.
func (c *CacheCtrl) forward(dst mesh.NodeID, msg Msg) {
	out := msg
	out.Src = c.Node
	bytes := c.P.CtrlBytes
	if out.Data {
		bytes = c.P.DataBytes
	}
	c.Net.Send(c.Node, dst, bytes, out)
}

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
	c.Net.Send(c.Node, c.HomeMC(addr), bytes, Msg{
		Kind: kind, Addr: addr, Src: c.Node,
		Tokens: tokens, Owner: owner, Dirty: dirty, Data: kind == MsgWBData,
	})
}
