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

// line is the controller's 2-byte per-block token account: the token count
// shifted left one, with the low bit set while memory does not hold the
// owner token. The owner token is one of the block's tokens, so an account
// with the owner token and no tokens never occurs; its word, 0, is the reset
// state instead: memory holds all tokens including the owner token. A new
// chunk's zero fill is therefore all reset lines, and the largest account,
// math.MaxInt16 tokens with the owner token, is the word 65534.
type line uint16

// mkLine encodes a present account; owner requires tokens >= 1.
func mkLine(tokens int, owner bool) line {
	l := line(tokens) << 1
	if !owner {
		l |= 1
	}
	return l
}

func (l line) present() bool { return l != 0 }
func (l line) tokens() int   { return int(l >> 1) }
func (l line) owner() bool   { return l&1 == 0 }

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

// Stats are the per-controller counters. The last three count the
// persistent arbitration paths that only faults reach.
type Stats struct {
	DRAMReads   uint64
	DRAMWrites  uint64
	TokenSends  uint64
	Activations uint64
	// OwnTokensForwarded counts messages whose tokens the active
	// persistent requester had sent itself, bounced home and forwarded
	// back to it.
	OwnTokensForwarded uint64
	// QueuedRetries counts persistent requests retried by a requester
	// already queued behind the active one; each queues once.
	QueuedRetries uint64
	// Withdrawals counts releases that took a queued requester out of
	// the queue before its turn.
	Withdrawals uint64
}

// Ctrl is one memory controller endpoint. Blocks are assigned to
// controllers by address interleaving (done by the cache controllers).
type Ctrl struct {
	Eng  *sim.Engine
	Net  *mesh.Network
	Node mesh.NodeID
	P    token.Params

	// Cores is the machine's core count: cache controller i is mesh
	// endpoint i, and persistent activation broadcasts go to all of them.
	Cores int

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

	// sendFn is the prebound event handler for delayed response sends
	// (arg = *token.Msg, u = destination << 32 | bytes): zero-alloc arming.
	sendFn sim.HandlerFn
	// allCores is the broadcast set as core-bit words: cores 0 to Cores-1.
	allCores []uint64

	// msgs is the slab every message this controller sends is carved from.
	msgs token.Msgs
}

// HeldMsgs returns how many of the controller's message slots are held
// (token.Msgs.Held): after a full drain, every one is back on the free list.
func (m *Ctrl) HeldMsgs() int { return m.msgs.Held() }

// Init prepares internal state; call once after fields are set.
func (m *Ctrl) Init() {
	if m.Interleave == 0 {
		m.Interleave = 1
	}
	m.persistent = make(map[mem.BlockAddr]*persistentEntry)
	m.allCores = make([]uint64, (m.Cores+63)/64)
	for i := 0; i < m.Cores; i++ {
		m.allCores[i>>6] |= 1 << (uint(i) & 63)
	}
	// The *token.Msg rides in arg with the sender's hold until the send
	// hands it to the deliveries.
	m.sendFn = func(arg interface{}, u uint64) {
		msg := arg.(*token.Msg)
		msg.Sent(m.Net.Send(m.Node, mesh.NodeID(u>>32), int(uint32(u)), msg))
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
	if !l.present() {
		*l = mkLine(m.P.TotalTokens, true)
	}
	return l
}

// Tokens returns memory's current token count and owner flag for a block
// (for tests and invariant checks).
func (m *Ctrl) Tokens(a mem.BlockAddr) (int, bool) {
	l := *m.line(a)
	return l.tokens(), l.owner()
}

// Peek returns the token account for a block without allocating a line:
// present is false when the block has never left the reset state ("memory
// holds all tokens"). Invariant checkers must use Peek, not Tokens, so that
// checking never perturbs controller state.
func (m *Ctrl) Peek(a mem.BlockAddr) (tokens int, owner, present bool) {
	l := m.slot(m.index(a))
	if l == nil || !l.present() {
		return 0, false, false
	}
	return l.tokens(), l.owner(), true
}

// ForEachLine calls fn for every materialized line in ascending block-addr
// order, which is the token table's own order.
func (m *Ctrl) ForEachLine(fn func(a mem.BlockAddr, tokens int, owner bool)) {
	for c, chunk := range m.chunks {
		for k := range chunk {
			if l := chunk[k]; l.present() {
				i := uint64(c)<<chunkShift | uint64(k)
				fn(mem.BlockAddr(i*m.Interleave+m.Residue), l.tokens(), l.owner())
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

// Handle processes a delivered coherence message and releases the
// delivery's hold on it (mesh handler).
func (m *Ctrl) Handle(payload interface{}) {
	msg := payload.(*token.Msg)
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
		badMsgPanic(msg.Kind)
	}
	msg.Release()
}

// badMsgPanic is Handle's cold failure path; it keeps the fmt call out of
// the dispatch.
func badMsgPanic(k token.Kind) {
	panic(fmt.Sprintf("memctrl: unexpected %v", k))
}

// activeEntry returns the block's persistent entry while a persistent
// request is active for it, else nil. The table is empty in every
// fault-free run, so the length test skips the map lookup there.
func (m *Ctrl) activeEntry(a mem.BlockAddr) *persistentEntry {
	if len(m.persistent) == 0 {
		return nil
	}
	if p := m.persistent[a]; p != nil && p.hasAct {
		return p
	}
	return nil
}

func (m *Ctrl) handleGetS(msg *token.Msg) {
	if m.activeEntry(msg.Addr) != nil {
		return // tokens are pledged to the persistent requester
	}
	l := m.line(msg.Addr)
	if msg.Page == mem.PageROShared {
		// Content-shared pages are guaranteed clean in memory (the
		// hypervisor flushed them when marking them RO-shared), so memory
		// can always serve them. If a designated cache provider is among
		// the snooped cores, send only the token and let the cache supply
		// the data with a fast cache-to-cache transfer.
		if l.tokens() == 0 {
			return // everything is cached; a holder will be snooped
		}
		providerNearby := m.Oracle != nil && m.Oracle.ROProviderAmong(msg.Addr, msg.Dests)
		tok, owner := m.takeOneToken(l)
		m.depart(msg.Addr, tok, owner)
		if providerNearby {
			m.Stats.TokenSends++
			m.send(msg.Src, token.MsgTokens, msg.Addr, tok, owner, m.P.MCLatency)
		} else {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.MsgData, msg.Addr, tok, owner, m.P.DRAMLatency)
		}
		return
	}
	// Ordinary TokenB: memory responds only while it holds the owner token
	// (otherwise a cache owner has the current data and responds).
	if !l.owner() || l.tokens() == 0 {
		return
	}
	tok, owner := m.takeOneToken(l)
	m.depart(msg.Addr, tok, owner)
	m.Stats.DRAMReads++
	m.send(msg.Src, token.MsgData, msg.Addr, tok, owner, m.P.DRAMLatency)
}

// takeOneToken removes one token from the line, preferring to keep the
// owner token; ownership transfers only with the last token.
func (m *Ctrl) takeOneToken(l *line) (tokens int, owner bool) {
	if l.tokens() >= 2 || !l.owner() {
		*l = mkLine(l.tokens()-1, l.owner())
		return 1, false
	}
	// Last token and it is the owner token.
	*l = mkLine(0, false)
	return 1, true
}

func (m *Ctrl) handleGetX(msg *token.Msg) {
	if m.activeEntry(msg.Addr) != nil {
		return
	}
	l := m.line(msg.Addr)
	tok, owner := l.tokens(), l.owner()
	if tok == 0 && !owner {
		return
	}
	*l = mkLine(0, false)
	m.depart(msg.Addr, tok, owner)
	if owner {
		m.Stats.DRAMReads++
		m.send(msg.Src, token.MsgData, msg.Addr, tok, true, m.P.DRAMLatency)
	} else if tok > 0 {
		m.Stats.TokenSends++
		m.send(msg.Src, token.MsgTokens, msg.Addr, tok, false, m.P.MCLatency)
	}
}

// absorb folds returned tokens (writebacks or strays) back into the line,
// or forwards them to the active requester when a persistent entry is
// active. That holds for tokens whose Src is the requester too: a response
// it sent to another core comes back here when the fault layer bounces it,
// and memory forwards its own tokens only at activation, so keeping them
// would leave the requester waiting for good.
func (m *Ctrl) absorb(msg *token.Msg) {
	if p := m.activeEntry(msg.Addr); p != nil {
		if msg.Src == p.active {
			m.Stats.OwnTokensForwarded++
		}
		// Relayed tokens stay in flight: no Arrive/Depart on the ledger.
		out := m.msgs.New(*msg)
		out.Src = m.Node
		if out.Kind == token.MsgWBData || out.Kind == token.MsgWBTokens {
			// A cache takes a writeback's tokens as a response, and the
			// owner token travels with the data, which memory has.
			out.Kind, out.Data = token.MsgTokens, out.Owner
			if out.Owner {
				out.Kind = token.MsgData
			}
		}
		bytes := m.P.CtrlBytes
		if out.Data {
			bytes = m.P.DataBytes
		}
		out.Sent(m.Net.Send(m.Node, p.active, bytes, out))
		return
	}
	m.arrive(msg.Addr, msg.Tokens, msg.Owner)
	l := m.line(msg.Addr)
	n, owner := l.tokens()+msg.Tokens, l.owner() || msg.Owner
	if n > m.P.TotalTokens || owner && n == 0 {
		badAccountPanic(msg.Addr, n, owner, m.P.TotalTokens)
	}
	*l = mkLine(n, owner)
	if msg.Dirty {
		m.Stats.DRAMWrites++
	}
}

// badAccountPanic is absorb's cold failure path: the returned tokens
// overflow the block's total, or the owner token arrived without a token.
func badAccountPanic(a mem.BlockAddr, tokens int, owner bool, total int) {
	panic(fmt.Sprintf("memctrl: bad token account at block %d (%d tokens, owner %v, %d total)",
		a, tokens, owner, total))
}

func (m *Ctrl) handlePersistentReq(msg *token.Msg) {
	p, ok := m.persistent[msg.Addr]
	if !ok {
		p = &persistentEntry{}
		m.persistent[msg.Addr] = p
	}
	if p.hasAct {
		switch {
		case p.active == msg.Src:
			return // duplicate activation from a retry
		case p.waiting(msg.Src) >= 0:
			m.Stats.QueuedRetries++
			return // a retry of a queued request queues once
		}
		p.waiters = append(p.waiters, *msg)
		return
	}
	m.activate(p, msg)
}

// waiting returns n's place in p's queue, or -1.
func (p *persistentEntry) waiting(n mesh.NodeID) int {
	for i := range p.waiters {
		if p.waiters[i].Src == n {
			return i
		}
	}
	return -1
}

func (m *Ctrl) activate(p *persistentEntry, msg *token.Msg) {
	p.active = msg.Src
	p.hasAct = true
	m.Stats.Activations++
	act := m.msgs.New(token.Msg{Kind: token.MsgPersistentActivate, Addr: msg.Addr, Src: msg.Src})
	act.Sent(m.Net.Multicast(m.Node, m.allCores, nil, -1, m.P.CtrlBytes, act, nil))
	// Memory forwards its own tokens too.
	l := m.line(msg.Addr)
	if tok, owner := l.tokens(), l.owner(); tok > 0 || owner {
		*l = mkLine(0, false)
		m.depart(msg.Addr, tok, owner)
		if owner {
			m.Stats.DRAMReads++
			m.send(msg.Src, token.MsgData, msg.Addr, tok, true, m.P.DRAMLatency)
		} else if tok > 0 {
			m.send(msg.Src, token.MsgTokens, msg.Addr, tok, false, m.P.MCLatency)
		}
	}
}

func (m *Ctrl) handleRelease(msg *token.Msg) {
	p, ok := m.persistent[msg.Addr]
	if !ok || !p.hasAct {
		return // stale release
	}
	if p.active != msg.Src {
		// A queued requester that completed before its activation
		// withdraws: activating it later would pledge the block's tokens
		// to a node that no longer wants them and will never release.
		if i := p.waiting(msg.Src); i >= 0 {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			m.Stats.Withdrawals++
		}
		return
	}
	deact := m.msgs.New(token.Msg{Kind: token.MsgPersistentDeactivate, Addr: msg.Addr, Src: m.Node})
	deact.Sent(m.Net.Multicast(m.Node, m.allCores, nil, -1, m.P.CtrlBytes, deact, nil))
	p.hasAct = false
	if len(p.waiters) > 0 {
		next := p.waiters[0]
		p.waiters = p.waiters[1:]
		m.activate(p, &next)
	} else {
		delete(m.persistent, msg.Addr)
	}
}

// send sends dst a response of kind (MsgData carries the data block) for
// addr, carrying tokens and the owner token if owner, after the given
// processing latency. The slot is filled in place; the event carries its
// hold until sendFn sends it.
func (m *Ctrl) send(dst mesh.NodeID, kind token.Kind, addr mem.BlockAddr, tokens int, owner bool, latency sim.Cycle) {
	bytes := m.P.CtrlBytes
	if kind == token.MsgData {
		bytes = m.P.DataBytes
	}
	msg := m.msgs.Response(kind, addr, m.Node, tokens, owner, false)
	m.Eng.ScheduleFn(latency, m.sendFn, msg, uint64(dst)<<32|uint64(uint32(bytes)))
}
