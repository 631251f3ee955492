// Package memctrl implements the memory-side Token Coherence controller:
// the token home for every block, the DRAM timing model, the persistent-
// request arbitration table, and the read-only-sharing response rule
// (memory supplies clean data for content-shared pages, or just a token
// when a designated cache provider will supply the data).
package memctrl

import (
	"fmt"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// line is the controller's 4-byte per-block token account. present=false
// is the reset state: memory holds all tokens including the owner token.
type line struct {
	tokens  int16
	owner   bool
	present bool
}

// The token table is dense: the block at table index i (see Ctrl.Interleave)
// lives in chunk i>>chunkShift, allocated whole on its first touch, so a
// line access is two slice indexes and walking the table visits blocks in
// ascending address order.
const (
	chunkShift = 12
	chunkLines = 1 << chunkShift
)

// persistentEntry tracks the active persistent requester and the queue of
// waiters for one block.
type persistentEntry struct {
	active  mesh.NodeID
	hasAct  bool
	waiters []token.Msg
}

// Stats are the per-controller counters.
type Stats struct {
	DRAMReads   uint64
	DRAMWrites  uint64
	TokenSends  uint64
	Activations uint64
}

// Ctrl is one memory controller endpoint. Blocks are assigned to
// controllers by address interleaving (done by the cache controllers).
type Ctrl struct {
	Eng  *sim.Engine
	Net  *mesh.Network
	Node mesh.NodeID
	P    token.Params

	// AllCaches lists every cache controller endpoint, for persistent
	// activation broadcasts.
	AllCaches []mesh.NodeID

	// Oracle answers whether a designated RO provider exists among the
	// snooped cores (see token.Oracle); nil disables the optimization and
	// memory always sends data for RO-shared reads.
	Oracle token.Oracle

	// Interleave and Residue describe the blocks this controller homes:
	// those with addr % Interleave == Residue, the cache controllers'
	// HomeMC interleaving. Block addr sits at token-table index
	// addr / Interleave. Zero Interleave means 1 (the controller homes
	// every block).
	Interleave uint64
	Residue    uint64

	Stats Stats

	// Obs, if set, watches token custody changes (invariant checking).
	Obs token.Observer

	chunks     [][]line // the dense token table; a nil chunk is all reset state
	persistent map[mem.BlockAddr]*persistentEntry

	// jn is the armed checkpoint journal (nil outside a speculative epoch);
	// jnStore holds the allocation between epochs. See snapshot.go.
	jn      *mjournal
	jnStore *mjournal

	// sendFn is the prebound event handler for delayed response sends
	// (arg = boxed Msg, u = destination << 32 | bytes): zero-alloc arming.
	sendFn sim.HandlerFn
}

// Init prepares internal state; call once after fields are set.
func (m *Ctrl) Init() {
	if m.Interleave == 0 {
		m.Interleave = 1
	}
	m.persistent = make(map[mem.BlockAddr]*persistentEntry)
	m.sendFn = func(arg interface{}, u uint64) {
		m.Net.Send(m.Node, mesh.NodeID(u>>32), int(uint32(u)), arg)
	}
}

// index returns a's token-table index.
func (m *Ctrl) index(a mem.BlockAddr) uint64 {
	i := uint64(a) / m.Interleave
	if i*m.Interleave+m.Residue != uint64(a) {
		misroutedPanic(a)
	}
	return i
}

// misroutedPanic is index's cold failure path: a block reached a
// controller that is not its home.
func misroutedPanic(a mem.BlockAddr) {
	panic(fmt.Sprintf("memctrl: block %d is not homed here", a))
}

// slot returns table entry i without materializing anything: nil when its
// chunk was never touched.
func (m *Ctrl) slot(i uint64) *line {
	c := i >> chunkShift
	if c >= uint64(len(m.chunks)) || m.chunks[c] == nil {
		return nil
	}
	return &m.chunks[c][i&(chunkLines-1)]
}

// line returns a's token account, materializing it (and its chunk) on
// first touch.
func (m *Ctrl) line(a mem.BlockAddr) *line {
	i := m.index(a)
	l := m.slot(i)
	if l == nil {
		c := i >> chunkShift
		for uint64(len(m.chunks)) <= c {
			m.chunks = append(m.chunks, nil)
		}
		m.chunks[c] = make([]line, chunkLines)
		l = &m.chunks[c][i&(chunkLines-1)]
	}
	if m.jn != nil {
		// Every caller may mutate the returned line, so journal its
		// pre-image (or its absence) first.
		m.jLine(i, l)
	}
	if !l.present {
		*l = line{tokens: int16(m.P.TotalTokens), owner: true, present: true}
	}
	return l
}

// Tokens returns memory's current token count and owner flag for a block
// (for tests and invariant checks).
func (m *Ctrl) Tokens(a mem.BlockAddr) (int, bool) {
	l := m.line(a)
	return int(l.tokens), l.owner
}

// Peek returns the token account for a block without allocating a line:
// present is false when the block has never left the reset state ("memory
// holds all tokens"). Invariant checkers must use Peek, not Tokens, so that
// checking never perturbs controller state.
func (m *Ctrl) Peek(a mem.BlockAddr) (tokens int, owner, present bool) {
	l := m.slot(m.index(a))
	if l == nil || !l.present {
		return 0, false, false
	}
	return int(l.tokens), l.owner, true
}

// ForEachLine calls fn for every materialized line in ascending block-addr
// order, which is the token table's own order.
func (m *Ctrl) ForEachLine(fn func(a mem.BlockAddr, tokens int, owner bool)) {
	for c, chunk := range m.chunks {
		for k := range chunk {
			if l := &chunk[k]; l.present {
				i := uint64(c)<<chunkShift | uint64(k)
				fn(mem.BlockAddr(i*m.Interleave+m.Residue), int(l.tokens), l.owner)
			}
		}
	}
}

// depart/arrive notify the token-custody observer.
func (m *Ctrl) depart(addr mem.BlockAddr, tokens int, owner bool) {
	if m.Obs != nil && (tokens > 0 || owner) {
		m.Obs.Depart(addr, tokens, owner)
	}
}

func (m *Ctrl) arrive(addr mem.BlockAddr, tokens int, owner bool) {
	if m.Obs != nil && (tokens > 0 || owner) {
		m.Obs.Arrive(addr, tokens, owner)
	}
}

// Handle processes a delivered coherence message (mesh handler).
func (m *Ctrl) Handle(payload interface{}) {
	msg := payload.(token.Msg)
	switch msg.Kind {
	case token.MsgGetS:
		m.handleGetS(msg)
	case token.MsgGetX:
		m.handleGetX(msg)
	case token.MsgWBData, token.MsgWBTokens, token.MsgData, token.MsgTokens:
		m.absorb(msg)
	case token.MsgPersistentReq:
		m.handlePersistentReq(msg)
	case token.MsgPersistentRelease:
		m.handleRelease(msg)
	default:
		panic(fmt.Sprintf("memctrl: unexpected %v", msg.Kind))
	}
}

func (m *Ctrl) handleGetS(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct {
		return // tokens are pledged to the persistent requester
	}
	l := m.line(msg.Addr)
	if msg.Page == mem.PageROShared {
		// Content-shared pages are guaranteed clean in memory (the
		// hypervisor flushed them when marking them RO-shared), so memory
		// can always serve them. If a designated cache provider is among
		// the snooped cores, send only the token and let the cache supply
		// the data with a fast cache-to-cache transfer.
		if l.tokens == 0 {
			return // everything is cached; a holder will be snooped
		}
		providerNearby := m.Oracle != nil && m.Oracle.ROProviderAmong(msg.Addr, msg.Dests)
		tok, owner := m.takeOneToken(l)
		m.depart(msg.Addr, tok, owner)
		if providerNearby {
			m.Stats.TokenSends++
			m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr,
				Src: m.Node, Tokens: tok, Owner: owner}, m.P.MCLatency, false)
		} else {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr,
				Src: m.Node, Tokens: tok, Owner: owner, Data: true}, m.P.DRAMLatency, true)
		}
		return
	}
	// Ordinary TokenB: memory responds only while it holds the owner token
	// (otherwise a cache owner has the current data and responds).
	if !l.owner || l.tokens == 0 {
		return
	}
	tok, owner := m.takeOneToken(l)
	m.depart(msg.Addr, tok, owner)
	m.Stats.DRAMReads++
	m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
		Tokens: tok, Owner: owner, Data: true}, m.P.DRAMLatency, true)
}

// takeOneToken removes one token from the line, preferring to keep the
// owner token; ownership transfers only with the last token.
func (m *Ctrl) takeOneToken(l *line) (tokens int, owner bool) {
	if l.tokens >= 2 || !l.owner {
		l.tokens--
		return 1, false
	}
	// Last token and it is the owner token.
	l.tokens = 0
	l.owner = false
	return 1, true
}

func (m *Ctrl) handleGetX(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct {
		return
	}
	l := m.line(msg.Addr)
	if l.tokens == 0 && !l.owner {
		return
	}
	tok, owner := int(l.tokens), l.owner
	l.tokens, l.owner = 0, false
	m.depart(msg.Addr, tok, owner)
	if owner {
		m.Stats.DRAMReads++
		m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
			Tokens: tok, Owner: true, Data: true}, m.P.DRAMLatency, true)
	} else if tok > 0 {
		m.Stats.TokenSends++
		m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr, Src: m.Node,
			Tokens: tok}, m.P.MCLatency, false)
	}
}

// absorb folds returned tokens (writebacks or strays) back into the line,
// or forwards them when a persistent entry is active.
func (m *Ctrl) absorb(msg token.Msg) {
	if p, ok := m.persistent[msg.Addr]; ok && p.hasAct && p.active != msg.Src {
		// Relayed tokens stay in flight: no Arrive/Depart on the ledger.
		out := msg
		out.Src = m.Node
		bytes := m.P.CtrlBytes
		if out.Data {
			bytes = m.P.DataBytes
		}
		m.Net.Send(m.Node, p.active, bytes, out)
		return
	}
	m.arrive(msg.Addr, msg.Tokens, msg.Owner)
	l := m.line(msg.Addr)
	n := int(l.tokens) + msg.Tokens
	if n > m.P.TotalTokens {
		panic(fmt.Sprintf("memctrl: token overflow at block %d (%d > %d)",
			msg.Addr, n, m.P.TotalTokens))
	}
	l.tokens = int16(n)
	l.owner = l.owner || msg.Owner
	if msg.Dirty {
		m.Stats.DRAMWrites++
	}
}

func (m *Ctrl) handlePersistentReq(msg token.Msg) {
	if m.jn != nil {
		m.jPersist(msg.Addr)
	}
	p, ok := m.persistent[msg.Addr]
	if !ok {
		p = &persistentEntry{}
		m.persistent[msg.Addr] = p
	}
	if p.hasAct {
		if p.active == msg.Src {
			return // duplicate activation from a retry
		}
		p.waiters = append(p.waiters, msg)
		return
	}
	m.activate(p, msg)
}

func (m *Ctrl) activate(p *persistentEntry, msg token.Msg) {
	p.active = msg.Src
	p.hasAct = true
	m.Stats.Activations++
	var act interface{} = token.Msg{Kind: token.MsgPersistentActivate, Addr: msg.Addr, Src: msg.Src}
	for _, n := range m.AllCaches {
		m.Net.Send(m.Node, n, m.P.CtrlBytes, act)
	}
	// Memory forwards its own tokens too.
	l := m.line(msg.Addr)
	if l.tokens > 0 || l.owner {
		tok, owner := int(l.tokens), l.owner
		l.tokens, l.owner = 0, false
		m.depart(msg.Addr, tok, owner)
		if owner {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.Msg{Kind: token.MsgData, Addr: msg.Addr, Src: m.Node,
				Tokens: tok, Owner: true, Data: true}, m.P.DRAMLatency, true)
		} else if tok > 0 {
			m.send(msg.Src, token.Msg{Kind: token.MsgTokens, Addr: msg.Addr, Src: m.Node,
				Tokens: tok}, m.P.MCLatency, false)
		}
	}
}

func (m *Ctrl) handleRelease(msg token.Msg) {
	if m.jn != nil {
		m.jPersist(msg.Addr)
	}
	p, ok := m.persistent[msg.Addr]
	if !ok || !p.hasAct || p.active != msg.Src {
		return // stale release
	}
	var deact interface{} = token.Msg{Kind: token.MsgPersistentDeactivate, Addr: msg.Addr, Src: m.Node}
	for _, n := range m.AllCaches {
		m.Net.Send(m.Node, n, m.P.CtrlBytes, deact)
	}
	p.hasAct = false
	if len(p.waiters) > 0 {
		next := p.waiters[0]
		p.waiters = p.waiters[1:]
		m.activate(p, next)
	} else {
		delete(m.persistent, msg.Addr)
	}
}

// send transmits a response after the given processing latency.
func (m *Ctrl) send(dst mesh.NodeID, msg token.Msg, latency sim.Cycle, data bool) {
	bytes := m.P.CtrlBytes
	if data {
		bytes = m.P.DataBytes
	}
	var payload interface{} = msg
	m.Eng.ScheduleFn(latency, m.sendFn, payload, uint64(dst)<<32|uint64(uint32(bytes)))
}
