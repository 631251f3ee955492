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

func (k Kind) String() string {
	return [...]string{"GetS", "GetX", "Data", "Tokens", "WBData", "WBTokens",
		"PReq", "PAct", "PRel", "PDeact"}[k]
}

// Msg is one coherence message. Control messages occupy CtrlBytes on the
// network; messages carrying data occupy DataBytes. Controllers send a *Msg
// carved from their own Msgs slab; a sent message is immutable, so a
// receiver that relays one sends a fresh copy.
type Msg struct {
	Kind   Kind
	Addr   mem.BlockAddr
	Src    mesh.NodeID // sender endpoint
	Tokens int
	Owner  bool // the owner token travels with this message
	Dirty  bool // data is dirty relative to memory (travels with owner)
	Data   bool // message carries the data block

	// Request-only fields.
	VM   mem.VMID     // requesting VM (for RO provider logic and stats)
	Page mem.PageType // sharing type from the requester's TLB
	TID  uint64       // transaction id (matches responses to attempts)
	// Dests is the snooped core set, carried only on RO-shared GetS (the
	// memory controller's RO-provider oracle is its one reader); it is a
	// slab copy, never the sender's route buffer.
	Dests []mesh.NodeID
	Write bool
}

// Slab chunk sizes: a Msg is 80 B, so a Msg chunk is 20 KiB.
const (
	msgChunk  = 256
	nodeChunk = 1024
)

// Msgs is one sender's message slab. Messages and destination copies are
// carved from fixed chunks and a slot is never handed out twice: a full
// chunk is dropped, and the garbage collector frees it once the last
// delivery referring to it is gone. Never reusing a slot is what makes
// sending by pointer safe without ownership tracking: a *Msg that any
// queued delivery still holds is never overwritten. The cursor is not
// simulation state. The zero value is ready to use.
type Msgs struct {
	msgs  []Msg
	nodes []mesh.NodeID
}

// New returns a slab slot holding a copy of m.
func (s *Msgs) New(m Msg) *Msg {
	if len(s.msgs) == 0 {
		s.msgs = make([]Msg, msgChunk)
	}
	p := &s.msgs[0]
	s.msgs = s.msgs[1:]
	*p = m
	return p
}

// Nodes returns a slab copy of set that later writes to set cannot reach.
func (s *Msgs) Nodes(set []mesh.NodeID) []mesh.NodeID {
	n := len(set)
	if n > len(s.nodes) {
		s.nodes = make([]mesh.NodeID, max(n, nodeChunk))
	}
	out := s.nodes[:n:n]
	s.nodes = s.nodes[n:]
	copy(out, set)
	return out
}

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
// Route appends the set to buf[:0] and returns it, or returns a shared
// read-only set (such as a precomputed broadcast set). Either way the
// caller only reads the result, and only until its next Route call: the
// caller reuses buf, and must never adopt a returned slice as its buffer,
// since writing into a shared set would corrupt every later user of it.
type Router interface {
	Route(info RouteInfo, buf []mesh.NodeID) []mesh.NodeID
}

// Oracle gives the memory controller the global visibility a real design
// obtains with response aggregation: whether a designated RO-shared
// provider copy exists among the snooped cores, so memory sends a
// token-only message instead of a redundant data block (Section VI.B).
type Oracle interface {
	ROProviderAmong(addr mem.BlockAddr, cores []mesh.NodeID) bool
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
