// Package check implements online protocol invariant checking for the
// simulated machine. A Checker is driven periodically during a run and
// evaluates registered invariants over global state — something real
// hardware cannot do, and exactly what a simulator-based safety argument
// needs: the paper's claim that a wrong vCPU map "only costs performance"
// is an emergent property of Token Coherence, and these checks turn it
// from an argument into a machine-verified property under fault injection.
//
// Three invariant families are provided:
//
//   - Token conservation: for every block, tokens held in caches + tokens
//     at the home memory controller + tokens in flight equals the fixed
//     total, and exactly one owner token exists. The in-flight term comes
//     from a Ledger fed by token.Observer hooks at every controller (the
//     controllers decrement state before their response is scheduled, so a
//     network-level observer would see phantom violations).
//   - Single writer / multiple readers: a cache holding all tokens (a
//     writer) is the only cache holding any; at most one cache holds the
//     owner token.
//   - Transaction completion: no coherence transaction stays outstanding
//     longer than an age bound — the liveness half of the safety argument
//     (every transaction must eventually obtain data and tokens even when
//     its initial destination set was wrong).
//
// Checks are observation-only (they use non-allocating accessors) and run
// between events, at window starts, so enabling them never changes
// simulated behaviour — only whether violations are detected.
package check

import (
	"fmt"
	"sort"

	"vsnoop/internal/cache"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// Ledger tracks tokens in flight between controllers. It implements
// token.Observer: Depart adds a message's tokens to the in-flight account,
// Arrive removes them. Controllers that merely relay a message (persistent
// forwarding) call neither, so relayed tokens stay in flight.
type Ledger struct {
	inflight map[mem.BlockAddr]*flight
}

type flight struct {
	tokens int
	owners int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{inflight: make(map[mem.BlockAddr]*flight)}
}

// Depart implements token.Observer.
func (l *Ledger) Depart(addr mem.BlockAddr, tokens int, owner bool) {
	f := l.inflight[addr]
	if f == nil {
		f = &flight{}
		l.inflight[addr] = f
	}
	f.tokens += tokens
	if owner {
		f.owners++
	}
}

// Arrive implements token.Observer.
func (l *Ledger) Arrive(addr mem.BlockAddr, tokens int, owner bool) {
	f := l.inflight[addr]
	if f == nil {
		f = &flight{}
		l.inflight[addr] = f
	}
	f.tokens -= tokens
	if owner {
		f.owners--
	}
	if f.tokens == 0 && f.owners == 0 {
		delete(l.inflight, addr)
	}
}

// Inflight returns the in-flight token and owner counts for a block.
func (l *Ledger) Inflight(addr mem.BlockAddr) (tokens, owners int) {
	if f := l.inflight[addr]; f != nil {
		return f.tokens, f.owners
	}
	return 0, 0
}

// Invariant is one named global predicate; Check returns violation
// descriptions (empty when the invariant holds).
type Invariant struct {
	Name  string
	Check func() []string
}

// Checker evaluates registered invariants whenever its driver calls
// CheckNow; the machine does so at window starts.
type Checker struct {
	// Now, if set, supplies the simulated time stamped on violations (the
	// machine stamps the window's start cycle).
	Now func() sim.Cycle
	// MaxViolations caps the recorded list (0 = 16); checking continues so
	// Checks keeps counting, but further text is suppressed.
	MaxViolations int

	// Checks counts invariant evaluations (invariants x wakeups + final).
	Checks uint64
	// Violations holds the recorded violation descriptions, in detection
	// order (deterministic: invariants run in registration order and each
	// reports in sorted address / core order).
	Violations []string

	invs []Invariant
}

// Register adds an invariant.
func (c *Checker) Register(name string, fn func() []string) {
	c.invs = append(c.invs, Invariant{Name: name, Check: fn})
}

// Add registers a prebuilt Invariant (the constructor form of Register).
func (c *Checker) Add(inv Invariant) { c.invs = append(c.invs, inv) }

// CheckNow evaluates every invariant immediately.
func (c *Checker) CheckNow() {
	for _, inv := range c.invs {
		c.Checks++
		for _, v := range inv.Check() {
			c.record(inv.Name, v)
		}
	}
}

func (c *Checker) record(name, v string) {
	max := c.MaxViolations
	if max <= 0 {
		max = 16
	}
	if len(c.Violations) < max {
		now := sim.Cycle(0)
		if c.Now != nil {
			now = c.Now()
		}
		c.Violations = append(c.Violations,
			fmt.Sprintf("[%d] %s: %s", now, name, v))
	}
}

// holderSum is the per-block cache-side accumulation used by the state
// invariants.
type holderSum struct {
	tokens  int
	owners  int
	maxTok  int   // largest single-cache token count
	holders []int // cores holding >= 1 token
}

// sumCaches accumulates token state per block across the private L2s.
// Iteration is core-index order, so reports are deterministic.
func sumCaches(l2s []*cache.Cache) map[mem.BlockAddr]*holderSum {
	acc := make(map[mem.BlockAddr]*holderSum)
	for i, l2 := range l2s {
		if l2 == nil {
			continue
		}
		i := i
		l2.ForEachValid(func(a mem.BlockAddr, b *cache.Block) {
			if b.Tokens == 0 && !b.Owner {
				return
			}
			h := acc[a]
			if h == nil {
				h = &holderSum{}
				acc[a] = h
			}
			tokens := int(b.Tokens)
			h.tokens += tokens
			if b.Owner {
				h.owners++
			}
			if tokens > h.maxTok {
				h.maxTok = tokens
			}
			if tokens > 0 {
				h.holders = append(h.holders, i)
			}
		})
	}
	return acc
}

func sortedAddrs(m map[mem.BlockAddr]bool) []mem.BlockAddr {
	out := make([]mem.BlockAddr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TokenConservation builds the conservation invariant: every block's
// tokens across caches, its home memory controller, and the in-flight
// ledgers sum to total, with exactly one owner token. home interleaving is
// addr mod len(mcs), matching the cache controllers. Several ledgers may
// be passed (the machine keeps one per domain so custody observations
// stay domain-local); their per-block balances are summed.
func TokenConservation(total int, l2s []*cache.Cache, mcs []*memctrl.Ctrl, leds ...*Ledger) Invariant {
	check := func() []string {
		acc := sumCaches(l2s)
		universe := make(map[mem.BlockAddr]bool, len(acc))
		for a := range acc { //lint:ordered set union; universe is iterated via sortedAddrs only
			universe[a] = true
		}
		for _, mc := range mcs {
			mc.ForEachLine(func(a mem.BlockAddr, _ int, _ bool) { universe[a] = true })
		}
		for _, led := range leds {
			for a := range led.inflight { //lint:ordered set union; universe is iterated via sortedAddrs only
				universe[a] = true
			}
		}
		var out []string
		for _, a := range sortedAddrs(universe) {
			cTok, cOwn := 0, 0
			if h := acc[a]; h != nil {
				cTok, cOwn = h.tokens, h.owners
			}
			home := mcs[uint64(a)%uint64(len(mcs))]
			mTok, mOwn, present := home.Peek(a)
			if !present {
				// Reset state: memory holds everything.
				mTok, mOwn = total, true
			}
			fTok, fOwn := 0, 0
			for _, led := range leds {
				lt, lo := led.Inflight(a)
				fTok += lt
				fOwn += lo
			}
			sum := cTok + mTok + fTok
			owners := cOwn + fOwn
			if mOwn {
				owners++
			}
			if sum != total {
				out = append(out, fmt.Sprintf(
					"block %d: %d tokens (caches %d + memory %d + inflight %d), want %d",
					a, sum, cTok, mTok, fTok, total))
			}
			if owners != 1 {
				out = append(out, fmt.Sprintf("block %d: %d owner tokens, want 1", a, owners))
			}
		}
		return out
	}
	return Invariant{Name: "token-conservation", Check: check}
}

// SingleWriter builds the coherence-state invariant: a cache holding all
// tokens of a block (write permission) must be its only cache holder, and
// at most one cache holds the owner token. Unlike conservation this reads
// only cache state, so it cross-checks the ledger-based invariant.
func SingleWriter(total int, l2s []*cache.Cache) Invariant {
	check := func() []string {
		acc := sumCaches(l2s)
		universe := make(map[mem.BlockAddr]bool, len(acc))
		for a := range acc { //lint:ordered set union; universe is iterated via sortedAddrs only
			universe[a] = true
		}
		var out []string
		for _, a := range sortedAddrs(universe) {
			h := acc[a]
			if h.tokens > total {
				out = append(out, fmt.Sprintf("block %d: caches hold %d tokens > total %d",
					a, h.tokens, total))
			}
			if h.owners > 1 {
				out = append(out, fmt.Sprintf("block %d: %d caches hold the owner token", a, h.owners))
			}
			if h.maxTok == total && len(h.holders) > 1 {
				out = append(out, fmt.Sprintf(
					"block %d: a writer coexists with other holders (cores %v)", a, h.holders))
			}
		}
		return out
	}
	return Invariant{Name: "single-writer", Check: check}
}

// TxnCompletion builds the liveness invariant: no controller's outstanding
// transaction may be older than maxAge cycles (snoop-domain safety — a
// wrong destination set must still complete via retries or the persistent
// path, only slower). now supplies the current simulated time (the
// machine passes its window clock; a test may pass an engine's Now).
func TxnCompletion(now func() sim.Cycle, ctrls []*token.CacheCtrl, maxAge sim.Cycle) Invariant {
	check := func() []string {
		var out []string
		for i, ctrl := range ctrls {
			if ctrl == nil {
				continue
			}
			addr, issued, attempt, ok := ctrl.Outstanding()
			if !ok {
				continue
			}
			if age := now() - issued; age > maxAge {
				out = append(out, fmt.Sprintf(
					"core %d: transaction on block %d outstanding %d cycles (attempt %d, limit %d)",
					i, addr, age, attempt, maxAge))
			}
		}
		return out
	}
	return Invariant{Name: "txn-completion", Check: check}
}
