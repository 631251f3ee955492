package directory

import (
	"fmt"
	"sort"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// dirState is the home's view of one block.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive
)

// dirEntry is one directory line: state, full-map sharer vector, and the
// blocking-protocol busy bit with its wait queue.
type dirEntry struct {
	state   dirState
	sharers map[mesh.NodeID]bool
	owner   mesh.NodeID
	busy    bool
	waiting []Msg
	// wbExpected marks a forward that raced the owner's eviction: the
	// home must satisfy the requester from the incoming writeback.
	pendingReq *Msg
}

// HomeStats counts events at one home controller.
type HomeStats struct {
	Lookups     uint64
	DRAMReads   uint64
	DRAMWrites  uint64
	Forwards    uint64
	Invalidates uint64
}

// Home is the directory controller co-located with a memory controller.
// In partitioned runs each home belongs to the domain of its mesh corner;
// its line directory is that domain's private state.
type Home struct {
	Eng  *sim.Engine
	Net  *mesh.Network
	Node mesh.NodeID
	P    Params

	Stats HomeStats

	// TraceAddr, when nonzero, logs every event for that block via TraceFn
	// (debugging aid for protocol work).
	TraceAddr mem.BlockAddr
	TraceFn   func(format string, args ...interface{})

	lines map[mem.BlockAddr]*dirEntry
	// sendFn is the prebound handler of a delayed send: the boxed Msg rides
	// in arg, the destination and size in u, so the send allocates only
	// the payload box the mesh would have made anyway.
	sendFn sim.HandlerFn
}

func (h *Home) trace(a mem.BlockAddr, format string, args ...interface{}) {
	if h.TraceFn != nil && a == h.TraceAddr {
		h.TraceFn(format, args...)
	}
}

// Init prepares internal state.
func (h *Home) Init() {
	h.lines = make(map[mem.BlockAddr]*dirEntry)
	h.sendFn = func(arg interface{}, u uint64) {
		h.Net.Send(h.Node, mesh.NodeID(u>>32), int(uint32(u)), arg)
	}
}

func (h *Home) line(a mem.BlockAddr) *dirEntry {
	e, ok := h.lines[a]
	if !ok {
		e = &dirEntry{sharers: make(map[mesh.NodeID]bool)}
		h.lines[a] = e
	}
	return e
}

// Sharers returns the sharer count of a block (tests).
func (h *Home) Sharers(a mem.BlockAddr) int { return len(h.line(a).sharers) }

// State returns the directory state of a block (tests).
func (h *Home) State(a mem.BlockAddr) string {
	return [...]string{"U", "S", "E"}[h.line(a).state]
}

// Handle is the mesh delivery handler.
func (h *Home) Handle(payload interface{}) {
	msg := payload.(Msg)
	h.trace(msg.Addr, "home<- %v src=%d req=%d state=%s busy=%v owner=%d sharers=%d waiting=%d pending=%v",
		msg.Kind, msg.Src, msg.Requester, h.State(msg.Addr), h.line(msg.Addr).busy,
		h.line(msg.Addr).owner, len(h.line(msg.Addr).sharers), len(h.line(msg.Addr).waiting),
		h.line(msg.Addr).pendingReq != nil)
	switch msg.Kind {
	case MsgGetS, MsgGetX:
		h.handleRequest(msg)
	case MsgUnblock:
		h.handleUnblock(msg)
	case MsgWB:
		h.handleWB(msg)
	case MsgSharingWB:
		h.handleSharingWB(msg)
	default:
		panic(fmt.Sprintf("directory: home got %v", msg.Kind))
	}
}

func (h *Home) handleRequest(msg Msg) {
	e := h.line(msg.Addr)
	if e.busy {
		e.waiting = append(e.waiting, msg)
		return
	}
	e.busy = true
	h.Stats.Lookups++
	h.process(msg, e)
}

func (h *Home) process(msg Msg, e *dirEntry) {
	switch msg.Kind {
	case MsgGetS:
		h.processGetS(msg, e)
	case MsgGetX:
		h.processGetX(msg, e)
	}
}

func (h *Home) processGetS(msg Msg, e *dirEntry) {
	switch e.state {
	case dirUncached, dirShared:
		h.Stats.DRAMReads++
		e.state = dirShared
		e.sharers[msg.Requester] = true
		h.send(msg.Requester, Msg{Kind: MsgData, Addr: msg.Addr, Src: h.Node, Data: true},
			h.P.DRAMLatency, true)
	case dirExclusive:
		if e.owner == msg.Requester {
			// The owner re-requesting means its copy was evicted and the
			// writeback is in flight; stash the request.
			e.pendingReq = &msg
			return
		}
		h.Stats.Forwards++
		e.state = dirShared
		e.sharers[e.owner] = true
		e.sharers[msg.Requester] = true
		h.send(e.owner, Msg{Kind: MsgFwdGetS, Addr: msg.Addr, Src: h.Node,
			Requester: msg.Requester}, h.P.DirLatency, false)
	}
}

func (h *Home) processGetX(msg Msg, e *dirEntry) {
	switch e.state {
	case dirUncached:
		h.Stats.DRAMReads++
		e.state = dirExclusive
		e.owner = msg.Requester
		h.send(msg.Requester, Msg{Kind: MsgData, Addr: msg.Addr, Src: h.Node, Data: true},
			h.P.DRAMLatency, true)
	case dirShared:
		// Invalidate every sharer except the requester; data comes from
		// memory with the ack count piggybacked. Sharers are walked in
		// sorted order so runs stay deterministic.
		sharers := make([]mesh.NodeID, 0, len(e.sharers))
		for s := range e.sharers {
			sharers = append(sharers, s)
		}
		sort.Slice(sharers, func(i, j int) bool { return sharers[i] < sharers[j] })
		acks := 0
		for _, s := range sharers {
			if s == msg.Requester {
				continue
			}
			acks++
			h.Stats.Invalidates++
			h.send(s, Msg{Kind: MsgInv, Addr: msg.Addr, Src: h.Node,
				Requester: msg.Requester}, h.P.DirLatency, false)
		}
		h.Stats.DRAMReads++
		e.state = dirExclusive
		e.owner = msg.Requester
		e.sharers = make(map[mesh.NodeID]bool)
		h.send(msg.Requester, Msg{Kind: MsgData, Addr: msg.Addr, Src: h.Node,
			AckCount: acks, Data: true}, h.P.DRAMLatency, true)
	case dirExclusive:
		if e.owner == msg.Requester {
			e.pendingReq = &msg
			return
		}
		h.Stats.Forwards++
		old := e.owner
		e.owner = msg.Requester
		h.send(old, Msg{Kind: MsgFwdGetX, Addr: msg.Addr, Src: h.Node,
			Requester: msg.Requester}, h.P.DirLatency, false)
	}
}

func (h *Home) handleUnblock(msg Msg) {
	e := h.line(msg.Addr)
	if !e.busy {
		return // stale (e.g. unblock after a WB already cleared it)
	}
	e.busy = false
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		e.waiting = e.waiting[1:]
		e.busy = true
		h.Stats.Lookups++
		h.process(next, e)
	}
}

// handleWB absorbs an owner's eviction writeback.
func (h *Home) handleWB(msg Msg) {
	e := h.line(msg.Addr)
	if msg.Dirty {
		h.Stats.DRAMWrites++
	}
	if e.state == dirExclusive && e.owner == msg.Src {
		e.state = dirUncached
		e.owner = 0
	}
	h.send(msg.Src, Msg{Kind: MsgWBAck, Addr: msg.Addr, Src: h.Node}, h.P.DirLatency, false)
	// A forward raced this eviction, or the old owner itself re-requested:
	// satisfy the stashed request from (now clean) memory.
	if e.pendingReq != nil {
		req := *e.pendingReq
		e.pendingReq = nil
		h.process(req, e)
	}
}

// handleSharingWB records the clean copy an owner pushed home when it
// downgraded on a forwarded GetS.
func (h *Home) handleSharingWB(msg Msg) {
	if msg.Dirty {
		h.Stats.DRAMWrites++
	}
}

func (h *Home) send(dst mesh.NodeID, msg Msg, latency sim.Cycle, data bool) {
	bytes := h.P.CtrlBytes
	if data {
		bytes = h.P.DataBytes
	}
	h.Eng.ScheduleFn(latency, h.sendFn, msg, uint64(dst)<<32|uint64(bytes))
}
