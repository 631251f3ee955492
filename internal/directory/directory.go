// Package directory implements a blocking home-directory MESI protocol on
// the same machine substrate as the Token Coherence implementation. The
// paper positions virtual snooping against directory-based designs for
// virtualized multi-cores (Section VII: Marty and Hill's Virtual
// Hierarchies "is based on two-level directory-based protocols", while
// "virtual snooping uses a conventional snooping protocol"); this package
// makes that trade-off measurable: directories eliminate broadcast
// entirely but pay home-node indirection on every miss, while filtered
// snooping keeps 2-hop cache-to-cache transfers.
//
// The protocol is a textbook blocking directory: the home (co-located
// with the block's memory controller) serializes transactions per block
// with a busy bit and a wait queue, tracks sharers in a full-map vector,
// forwards requests to owners, and collects invalidation acknowledgements
// at the requester.
package directory

import (
	"fmt"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// Kind enumerates directory protocol messages.
type Kind uint8

const (
	// MsgGetS / MsgGetX are requests to the home.
	MsgGetS Kind = iota
	MsgGetX
	// MsgFwdGetS / MsgFwdGetX forward a request to the current owner.
	MsgFwdGetS
	MsgFwdGetX
	// MsgInv invalidates a sharer; the sharer acks the requester.
	MsgInv
	// MsgData carries data (from home/memory or a forwarding owner).
	MsgData
	// MsgInvAck acknowledges an invalidation to the requester.
	MsgInvAck
	// MsgUnblock releases the home's busy bit once the requester is done.
	MsgUnblock
	// MsgWB writes a dirty owned block back to the home.
	MsgWB
	// MsgWBAck confirms a writeback (the home may have raced a forward).
	MsgWBAck
	// MsgSharingWB is the owner's clean copy sent home on a downgrade.
	MsgSharingWB
)

func (k Kind) String() string {
	return [...]string{"GetS", "GetX", "FwdGetS", "FwdGetX", "Inv", "Data",
		"InvAck", "Unblock", "WB", "WBAck", "SharingWB"}[k]
}

// Msg is one directory-protocol message.
type Msg struct {
	Kind      Kind
	Addr      mem.BlockAddr
	Src       mesh.NodeID
	Requester mesh.NodeID // final destination of forwarded data/acks
	AckCount  int         // invalidations the requester must collect
	Dirty     bool
	Data      bool
}

// Params carries the timing/size constants (shared with the token config
// where meaningful).
type Params struct {
	CtrlBytes   int
	DataBytes   int
	L2Latency   sim.Cycle
	FillLatency sim.Cycle
	DRAMLatency sim.Cycle
	DirLatency  sim.Cycle // directory lookup/update
}

// DefaultParams mirrors token.DefaultParams timing.
func DefaultParams() Params {
	return Params{
		CtrlBytes: 8, DataBytes: 72,
		L2Latency: 10, FillLatency: 2, DRAMLatency: 200, DirLatency: 6,
	}
}

// Stats counts protocol events at one controller.
type Stats struct {
	Transactions  uint64
	DirLookups    uint64 // home-directory accesses
	Forwards      uint64 // owner forwards
	Invalidations uint64
	Writebacks    uint64
}

// CacheCtrl is the cache side of the directory protocol. MESI state is
// encoded in the shared cache.Block fields exactly as the token protocol
// encodes it (S = one token, E/M = all tokens, dirty flag), so the cache
// model, residence counters, and stats pipeline are reused unchanged.
type CacheCtrl struct {
	Eng    *sim.Engine
	Net    *mesh.Network
	Node   mesh.NodeID
	Core   int
	L2     *cache.Cache
	P      Params
	Tokens int // "all tokens" value used to encode E/M

	// Homes maps a block to its home node (block-interleaved MCs).
	Homes []mesh.NodeID

	Stats Stats

	cur *txn
	txn txn // backing storage for cur: cores are blocking, so one suffices
}

// Init prepares internal state; call once after fields are set.
func (c *CacheCtrl) Init() {}

type txn struct {
	addr     mem.BlockAddr
	vm       mem.VMID
	write    bool
	doneFn   sim.HandlerFn
	doneArg  interface{}
	gotData  bool
	needAcks int
	gotAcks  int
	complete bool
}

// Busy reports whether a transaction is outstanding.
func (c *CacheCtrl) Busy() bool { return c.cur != nil }

func (c *CacheCtrl) home(a mem.BlockAddr) mesh.NodeID {
	return c.Homes[uint64(a)%uint64(len(c.Homes))]
}

// Start begins a miss/upgrade transaction. Once it completes, fn(arg, 0)
// runs after the fill latency (a prebound handler, as in token.CacheCtrl).
func (c *CacheCtrl) Start(addr mem.BlockAddr, vm mem.VMID, write bool, fn sim.HandlerFn, arg interface{}) {
	if c.cur != nil {
		panic(fmt.Sprintf("directory: core %d busy", c.Core))
	}
	c.txn = txn{addr: addr, vm: vm, write: write, doneFn: fn, doneArg: arg}
	t := &c.txn
	c.cur = t
	c.Stats.Transactions++
	if b := c.L2.Lookup(addr); b != nil && b.Tokens >= 1 {
		if write {
			if b.Tokens == c.Tokens {
				c.finish(t, b) // silent E->M
				return
			}
			// Upgrade: the local S copy does NOT count as data. The write
			// completes only when the home's grant (MsgData with the ack
			// count) arrives — otherwise an early InvAck would finish the
			// write without permission, leaving the line S while the
			// directory believes we own it.
		} else {
			t.gotData = true
		}
	}
	kind := MsgGetS
	if write {
		kind = MsgGetX
	}
	c.Net.Send(c.Node, c.home(addr), c.P.CtrlBytes,
		Msg{Kind: kind, Addr: addr, Src: c.Node, Requester: c.Node})
}

// Handle is the mesh delivery handler.
func (c *CacheCtrl) Handle(payload interface{}) {
	msg := payload.(Msg)
	switch msg.Kind {
	case MsgData:
		c.handleData(msg)
	case MsgInvAck:
		c.handleInvAck(msg)
	case MsgFwdGetS:
		c.handleFwdGetS(msg)
	case MsgFwdGetX:
		c.handleFwdGetX(msg)
	case MsgInv:
		c.handleInv(msg)
	case MsgWBAck:
		// nothing further: the home absorbed the writeback
	default:
		panic(fmt.Sprintf("directory: cache ctrl got %v", msg.Kind))
	}
}

func (c *CacheCtrl) handleData(msg Msg) {
	t := c.cur
	if t == nil || t.addr != msg.Addr {
		return // stale (e.g. data raced a local eviction decision)
	}
	b := c.L2.Lookup(t.addr)
	if b == nil {
		nb, victim, evicted := c.L2.Insert(t.addr, t.vm)
		if evicted {
			c.writebackVictim(victim)
		}
		b = nb
	}
	t.gotData = true
	t.needAcks += msg.AckCount
	if t.write {
		b.Tokens = c.Tokens
		b.Owner = true
		b.Dirty = true
	} else {
		b.Tokens = 1
		b.Dirty = msg.Dirty
	}
	c.maybeFinish(t, b)
}

func (c *CacheCtrl) handleInvAck(msg Msg) {
	t := c.cur
	if t == nil || t.addr != msg.Addr {
		return
	}
	t.gotAcks++
	if b := c.L2.Lookup(t.addr); b != nil {
		c.maybeFinish(t, b)
	}
}

func (c *CacheCtrl) maybeFinish(t *txn, b *cache.Block) {
	if t.complete || !t.gotData || t.gotAcks < t.needAcks {
		return
	}
	c.finish(t, b)
}

func (c *CacheCtrl) finish(t *txn, b *cache.Block) {
	t.complete = true
	c.L2.Touch(b)
	c.Net.Send(c.Node, c.home(t.addr), c.P.CtrlBytes,
		Msg{Kind: MsgUnblock, Addr: t.addr, Src: c.Node})
	fn, arg := t.doneFn, t.doneArg
	c.cur = nil
	c.Eng.ScheduleFn(c.P.FillLatency, fn, arg, 0)
}

// handleFwdGetS: we own the block; send data to the requester, downgrade
// to shared, and send the home a clean copy.
func (c *CacheCtrl) handleFwdGetS(msg Msg) {
	c.Stats.Forwards++
	b := c.L2.Lookup(msg.Addr)
	if b == nil || b.Tokens == 0 {
		// Raced with our own eviction. The writeback (in flight or already
		// absorbed) makes the home's copy current, so responding here is
		// consistent — this is the writeback-buffer behaviour of blocking
		// directory protocols, with the buffer's lifetime made unbounded
		// because the simulator carries validity, not values.
		c.Eng.Schedule(c.P.L2Latency, func() {
			c.Net.Send(c.Node, msg.Requester, c.P.DataBytes,
				Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node, Data: true})
		})
		return
	}
	dirty := b.Dirty
	b.Tokens = 1 // downgrade to S
	b.Owner = false
	b.Dirty = false
	c.Eng.Schedule(c.P.L2Latency, func() {
		c.Net.Send(c.Node, msg.Requester, c.P.DataBytes,
			Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node, Data: true})
		c.Net.Send(c.Node, c.home(msg.Addr), c.P.DataBytes,
			Msg{Kind: MsgSharingWB, Addr: msg.Addr, Src: c.Node, Dirty: dirty, Data: true})
	})
}

// handleFwdGetX: we own the block; send data to the requester and
// invalidate our copy.
func (c *CacheCtrl) handleFwdGetX(msg Msg) {
	c.Stats.Forwards++
	b := c.L2.Lookup(msg.Addr)
	if b == nil || b.Tokens == 0 {
		// Raced with our own eviction: respond anyway (see handleFwdGetS).
		c.Eng.Schedule(c.P.L2Latency, func() {
			c.Net.Send(c.Node, msg.Requester, c.P.DataBytes,
				Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node, Data: true})
		})
		return
	}
	c.L2.Invalidate(b)
	c.Eng.Schedule(c.P.L2Latency, func() {
		c.Net.Send(c.Node, msg.Requester, c.P.DataBytes,
			Msg{Kind: MsgData, Addr: msg.Addr, Src: c.Node, Data: true})
	})
}

// handleInv: drop our shared copy and ack the requester.
func (c *CacheCtrl) handleInv(msg Msg) {
	c.Stats.Invalidations++
	if b := c.L2.Lookup(msg.Addr); b != nil && b.Tokens > 0 {
		c.L2.Invalidate(b)
	}
	c.Eng.Schedule(c.P.L2Latency, func() {
		c.Net.Send(c.Node, msg.Requester, c.P.CtrlBytes,
			Msg{Kind: MsgInvAck, Addr: msg.Addr, Src: c.Node})
	})
}

// writebackVictim returns an evicted block to its home. Shared copies are
// dropped silently (the directory tolerates stale sharers); owned copies
// write back.
func (c *CacheCtrl) writebackVictim(v cache.EvictInfo) {
	if v.Tokens < c.Tokens {
		return // silent S-eviction
	}
	c.Stats.Writebacks++
	bytes := c.P.CtrlBytes
	if v.Dirty {
		bytes = c.P.DataBytes
	}
	c.Net.Send(c.Node, c.home(v.Addr), bytes,
		Msg{Kind: MsgWB, Addr: v.Addr, Src: c.Node, Dirty: v.Dirty, Data: v.Dirty})
}
