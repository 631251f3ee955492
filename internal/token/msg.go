// Package token implements the Token Coherence protocol (Martin et al.,
// ISCA 2003) that the paper uses as its base coherence protocol (Table II:
// "Token Coherence, MOESI protocol"). Each block has a fixed number of
// tokens; a reader needs at least one token plus valid data, a writer
// needs all of them. Requests are *transient* (unordered, may fail and be
// retried) with a *persistent* fallback that guarantees forward progress.
//
// Virtual snooping plugs in underneath as a Router that chooses which
// cores a transient request is multicast to. The protocol's safe-retry
// property is exactly what the paper's counter-threshold policy exploits:
// the first attempts may be filtered too aggressively, and the later
// attempts broadcast.
package token

import (
	"strconv"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// Kind enumerates coherence message types.
type Kind uint8

const (
	// MsgGetS is a transient read request (needs data + >=1 token).
	MsgGetS Kind = iota
	// MsgGetX is a transient write request (needs data + all tokens).
	MsgGetX
	// MsgData carries data plus zero or more tokens to a requester.
	MsgData
	// MsgTokens carries tokens without data.
	MsgTokens
	// MsgWBData is an owner writeback (data + tokens) to memory.
	MsgWBData
	// MsgWBTokens is a token-only writeback to memory.
	MsgWBTokens
	// MsgPersistentReq asks the home memory controller to activate a
	// persistent request for the sender.
	MsgPersistentReq
	// MsgPersistentActivate is broadcast by the home memory controller:
	// every holder must forward its tokens to the persistent requester,
	// and forward any tokens that arrive while the entry is active.
	MsgPersistentActivate
	// MsgPersistentRelease tells the home controller the persistent
	// requester is satisfied.
	MsgPersistentRelease
	// MsgPersistentDeactivate is broadcast by the home controller to clear
	// the persistent entry at every node.
	MsgPersistentDeactivate
)

// kindFreed is the Kind of a slot on its slab's free list. No handler
// accepts it, so a delivery that reads a released message panics.
const kindFreed Kind = 0xff

var kindNames = [...]string{"GetS", "GetX", "Data", "Tokens", "WBData", "WBTokens",
	"PReq", "PAct", "PRel", "PDeact"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// Msg is one coherence message. Control messages occupy CtrlBytes on the
// network; messages carrying data occupy DataBytes. Controllers send a *Msg
// carved from their own Msgs slab; a sent message is immutable, so a
// receiver that relays one sends a fresh copy.
//
// A Msg is 80 B, so a slot starts at offset 0, 16, 32 or 48 of a cache
// line: its first 16 bytes, which hold what every delivery reads first
// (Kind) and what it writes last (the slab bookkeeping), share one line.
type Msg struct {
	Kind  Kind
	Owner bool // the owner token travels with this message
	Dirty bool // data is dirty relative to memory (travels with owner)
	Data  bool // message carries the data block

	// refs counts the slot's holders: the sender, then one per delivery
	// the send queued. slab is the Msgs the slot was carved from (nil
	// for a Msg built by hand, whose holds are not counted).
	refs int32
	slab *Msgs

	// Request-only fields.
	Write bool
	Page  mem.PageType // sharing type from the requester's TLB
	VM    mem.VMID     // requesting VM (for RO provider logic and stats)

	Addr   mem.BlockAddr
	Src    mesh.NodeID // sender endpoint
	Tokens int
	TID    uint64 // transaction id (matches responses to attempts)
	// Dests is the snooped core set as core-bit words (core i is bit i%64
	// of word i/64), carried only on RO-shared GetS (the memory
	// controller's RO-provider oracle is its one reader). Msgs.New copies
	// it into the slot's own buffer, never keeping the router's words.
	Dests []uint64
}

// Sent swaps the sender's hold for one hold per queued delivery: n is what
// mesh.Network.Send or Multicast returned (0 when a fault dropped the
// message or a keep mask kept it, 2 for a duplicate). With n == 0 the slot
// goes back to its slab.
func (m *Msg) Sent(n int) {
	if m.refs += int32(n) - 1; m.refs <= 0 {
		m.free()
	}
}

// Release drops one hold: a handler calls it once it is done with a
// delivered message. The last release returns the slot to its slab.
func (m *Msg) Release() {
	if m.refs--; m.refs <= 0 {
		m.free()
	}
}

// free runs when the holder count reaches zero: it poisons the slot and
// puts it on its slab's free list. A count below zero is a release without
// a hold, except on a Msg built by hand, whose count just restarts.
func (m *Msg) free() {
	s := m.slab
	switch {
	case s == nil:
		m.refs = 0
	case m.refs < 0:
		overReleasePanic(m.refs)
	default:
		m.Kind = kindFreed
		s.free = append(s.free, m)
	}
}

// overReleasePanic is free's cold failure path: a slot was released more
// times than it was held.
func overReleasePanic(refs int32) {
	panic("token: message released " + strconv.Itoa(int(-refs)) + " more times than held")
}

// msgChunk is the slab chunk size: 64 Msgs of 80 B, 5 KiB. With slots
// recycled, one controller holds at most about 20 at once in the benchmark's
// machines, so one chunk usually lasts a whole run.
const msgChunk = 64

// Msgs is one sender's message slab. Slots are carved from fixed chunks
// and counted by their holders (Msg.Sent, Msg.Release); a slot whose count
// reaches zero goes on a LIFO free list, and New hands the most recently
// freed slot out first. A slot stays in its chunk for good, so a *Msg
// that a sender, an event or a queued delivery still holds is never
// overwritten. The free list is not simulation state. The zero value is
// ready to use.
type Msgs struct {
	chunk  []Msg  // the uncarved rest of the newest chunk
	free   []*Msg // released slots, most recent last
	carved int
}

// New returns a slot holding a copy of m, with its Dests copied into the
// slot's own buffer. The caller holds the slot once: it passes the hold to
// the deliveries with Sent, or to an event that sends later.
func (s *Msgs) New(m Msg) *Msg {
	p := s.take()
	dests := p.Dests[:0] // the slot's own buffer outlives its messages
	*p = m
	dests = append(dests, m.Dests...)
	p.Dests, p.slab, p.refs = dests, s, 1
	return p
}

// Response returns a slot holding a response or writeback from src for
// block addr: kinds MsgData and MsgWBData carry the data block. The slot
// is filled in place, so the message is never copied; the caller holds it
// once, as with New.
func (s *Msgs) Response(kind Kind, addr mem.BlockAddr, src mesh.NodeID, tokens int, owner, dirty bool) *Msg {
	// Field by field: a composite literal would be built in a temporary
	// and copied, since it reads the slot's own Dests.
	p := s.take()
	p.Kind, p.Owner, p.Dirty, p.Data = kind, owner, dirty, kind == MsgData || kind == MsgWBData
	p.refs, p.slab = 1, s
	p.Write, p.Page, p.VM = false, 0, 0
	p.Addr, p.Src, p.Tokens, p.TID = addr, src, tokens, 0
	p.Dests = p.Dests[:0]
	return p
}

// take pops the most recently freed slot, or carves a new one.
func (s *Msgs) take() *Msg {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]Msg, msgChunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.carved++
	return p
}

// Held returns how many slots carved from the slab are not on its free
// list: the messages some sender, event or delivery still holds.
func (s *Msgs) Held() int { return s.carved - len(s.free) }

// Params are the protocol timing/size constants.
type Params struct {
	TotalTokens int // tokens per block (cores + 1)

	CtrlBytes int // control message size (8 B)
	DataBytes int // data message size (64 B block + 8 B header)

	L2Latency   sim.Cycle // lookup/response latency at a snooped cache
	FillLatency sim.Cycle // requester restart after satisfaction
	DRAMLatency sim.Cycle // memory access latency
	MCLatency   sim.Cycle // memory controller token-only processing

	TimeoutBase   sim.Cycle // transient-request timeout (first attempt)
	TimeoutJitter int       // random extra cycles per retry (livelock break)
	// TimeoutMax caps the exponential backoff of the retry timeout; 0 means
	// 8x TimeoutBase. Backoff desynchronizes retries under message-loss
	// storms (without it every loser of a token race retries in lockstep).
	TimeoutMax sim.Cycle

	// RetriesBeforeBroadcast is the number of attempts issued with the
	// Router's (possibly filtered) destination set before falling back to
	// broadcast. The paper's counter-threshold policy uses 2.
	RetriesBeforeBroadcast int
	// RetriesBeforePersistent is the number of transient attempts before
	// resorting to a persistent request.
	RetriesBeforePersistent int
}

// DefaultParams returns the constants used throughout the evaluation
// (Table II timing, 1 GHz clock).
func DefaultParams(cores int) Params {
	return Params{
		TotalTokens:             cores + 1,
		CtrlBytes:               8,
		DataBytes:               72,
		L2Latency:               10,
		FillLatency:             2,
		DRAMLatency:             200,
		MCLatency:               10,
		TimeoutBase:             400,
		TimeoutJitter:           64,
		RetriesBeforeBroadcast:  2,
		RetriesBeforePersistent: 4,
	}
}

// RouteInfo describes one transaction attempt to the snoop Router.
type RouteInfo struct {
	Addr      mem.BlockAddr
	VM        mem.VMID
	Page      mem.PageType
	Requester int         // core index
	CoreNode  mesh.NodeID // requester's network endpoint
	Attempt   int         // 1-based
	Write     bool
}

// Router chooses the remote cache controllers a transient request is sent
// to. The home memory controller is always included implicitly. Virtual
// snooping's destination-set policies implement this interface; the
// baseline TokenB router returns every other core.
//
// Route returns the set as core-bit words, core i being bit i%64 of word
// i/64 (and mesh endpoint i), never holding the requester, in send order:
// first's cores ascending, then second's, which holds none of first's
// (nil for most routes). The words are the router's own: the caller reads
// them only until the router's next Route call.
type Router interface {
	Route(info RouteInfo) (first, second []uint64)
}

// Oracle gives the memory controller the global visibility a real design
// obtains with response aggregation: whether a designated RO-shared
// provider copy exists among the snooped cores, so memory sends a
// token-only message instead of a redundant data block (Section VI.B).
type Oracle interface {
	ROProviderAmong(addr mem.BlockAddr, cores []uint64) bool
}

// Observer watches token custody changes at coherence controllers. Depart
// fires when a controller hands tokens to the network (its own state already
// decremented); Arrive fires when a controller absorbs them. The invariant
// checker (internal/check) uses the pair to maintain an in-flight ledger, so
// token conservation can be verified at any instant even while messages are
// on the wire. Hooks are observation-only and must not mutate protocol state.
type Observer interface {
	Depart(addr mem.BlockAddr, tokens int, owner bool)
	Arrive(addr mem.BlockAddr, tokens int, owner bool)
}

// EscalationSink is notified when a transaction escalates past a filtering
// threshold: level 1 when it falls back to broadcast (the filtered
// destination set failed RetriesBeforeBroadcast times), level 2 when it
// resorts to a persistent request. The snoop filter (internal/core) uses
// these signals to suspect the requesting VM's vCPU map and degrade its
// destination sets gracefully (map -> counter-augmented map -> broadcast).
type EscalationSink interface {
	NoteEscalation(vm mem.VMID, level int)
}
