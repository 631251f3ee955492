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
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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
//
// Entries are held by value, so booking a message allocates nothing once
// the map has grown to the run's in-flight working set.
type Ledger struct {
	inflight map[mem.BlockAddr]flight
}

type flight struct {
	tokens int
	owners int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{inflight: make(map[mem.BlockAddr]flight)}
}

// Depart implements token.Observer.
func (l *Ledger) Depart(addr mem.BlockAddr, tokens int, owner bool) {
	f := l.inflight[addr]
	f.tokens += tokens
	if owner {
		f.owners++
	}
	l.inflight[addr] = f
}

// Arrive implements token.Observer.
func (l *Ledger) Arrive(addr mem.BlockAddr, tokens int, owner bool) {
	f := l.inflight[addr]
	f.tokens -= tokens
	if owner {
		f.owners--
	}
	if f.tokens == 0 && f.owners == 0 {
		delete(l.inflight, addr)
		return
	}
	l.inflight[addr] = f
}

// Inflight returns the in-flight token and owner counts for a block.
func (l *Ledger) Inflight(addr mem.BlockAddr) (tokens, owners int) {
	f := l.inflight[addr]
	return f.tokens, f.owners
}

// Invariant is one named global predicate; Check returns violation
// descriptions (empty when the invariant holds).
type Invariant struct {
	Name  string
	Check func() []string

	// census, when set, is the state snapshot Check reads. A Checker
	// takes each census once per sweep, before any invariant runs;
	// called on its own, Check takes it first.
	census *Census
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

// CheckNow evaluates every invariant immediately. Invariants sharing a
// census read one snapshot of it, taken before the first of them runs.
func (c *Checker) CheckNow() {
	for _, inv := range c.invs {
		if cen := inv.census; cen != nil && !cen.held {
			cen.take()
			cen.held = true
		}
	}
	for _, inv := range c.invs {
		c.Checks++
		for _, v := range inv.Check() {
			c.record(inv.Name, v)
		}
	}
	for _, inv := range c.invs {
		if inv.census != nil {
			inv.census.held = false
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

// Census is a snapshot of the token custody the memory lines do not show:
// one record per (block, holder) for each private L2 line holding tokens or
// the owner token, and for each in-flight ledger balance. Records are
// sorted by block, then holder — caches in core order, then ledgers — so
// each block's records form one run. Memory is read where it lives: a
// block with records looks up its home line, and every other materialized
// line is checked on its own. Buffers are reused across sweeps, so once
// they have grown to the machine's footprint a sweep allocates nothing.
type Census struct {
	l2s  []*cache.Cache
	mcs  []*memctrl.Ctrl
	leds []*Ledger

	raw     []record    // in holder order: caches by core, then ledgers
	keys    []uint64    // addr<<n | index into raw, sorted
	tmp     []uint64    // radixSort's scratch
	recs    []record    // raw in (addr, holder) order
	holders []int       // one block's holder list, for a report
	viols   []violation // conservation reports, put in address order
	held    bool        // taken by the Checker for the current sweep
}

// record is one holder's custody of one block. src numbers the holder:
// core i's L2 is i, and ledger k is len(l2s)+k.
type record struct {
	addr   mem.BlockAddr
	src    int
	tokens int
	owners int
}

type violation struct {
	addr mem.BlockAddr
	text string
}

// NewCensus returns the census of the given private L2s (indexed by core;
// nil entries are skipped), memory controllers (block a's home is
// mcs[a mod len(mcs)], matching the cache controllers), and in-flight
// ledgers, whose balances are summed.
func NewCensus(l2s []*cache.Cache, mcs []*memctrl.Ctrl, leds ...*Ledger) *Census {
	return &Census{l2s: l2s, mcs: mcs, leds: leds}
}

// take rebuilds the snapshot from the caches and ledgers.
func (cen *Census) take() {
	cen.raw = cen.raw[:0]
	for i, l2 := range cen.l2s {
		if l2 == nil {
			continue
		}
		l2.ForEachValid(func(a mem.BlockAddr, b *cache.Block) {
			if b.Tokens == 0 && !b.Owner {
				return
			}
			cen.raw = append(cen.raw, record{a, i, int(b.Tokens), b2i(b.Owner)})
		})
	}
	for k, led := range cen.leds {
		for a, f := range led.inflight { //lint:ordered records are sorted by (addr, src) before any use
			cen.raw = append(cen.raw, record{a, len(cen.l2s) + k, f.tokens, f.owners})
		}
	}
	// Sort by (addr, holder) as one integer: raw is in holder order
	// within each block, so the index is the tie-break.
	n := bits.Len(uint(len(cen.raw)))
	cen.keys = cen.keys[:0]
	for i, r := range cen.raw {
		if uint64(r.addr)>>(64-n) != 0 {
			panic(fmt.Sprintf("check: block %d does not fit a census key", r.addr))
		}
		cen.keys = append(cen.keys, uint64(r.addr)<<n|uint64(i))
	}
	cen.tmp = radixSort(cen.keys, cen.tmp, uint(n))
	cen.recs = cen.recs[:0]
	for _, k := range cen.keys {
		cen.recs = append(cen.recs, cen.raw[k&(1<<n-1)])
	}
}

// radixSort sorts keys, which must be in ascending order of their low
// skip bits, in place, and returns tmp, grown to cap(keys) if it was
// shorter than keys, which it uses as scratch. It is an LSD radix sort, 11
// bits per pass, over the bits above skip in which the keys differ from
// their minimum; each pass is stable, so the low bits need none. A census
// sorts as many keys as the caches hold tokened lines, and a comparison
// sort of them dominated a checked run.
func radixSort(keys, tmp []uint64, skip uint) []uint64 {
	const radixBits = 11
	if len(keys) < 2 {
		return tmp
	}
	lo, hi := keys[0]>>skip, keys[0]>>skip
	for _, k := range keys {
		lo, hi = min(lo, k>>skip), max(hi, k>>skip)
	}
	if cap(tmp) < len(keys) {
		tmp = make([]uint64, cap(keys)) // grows as keys does, not one sweep at a time
	}
	src, dst := keys, tmp[:len(keys)]
	for shift := uint(0); shift < 64 && (hi-lo)>>shift != 0; shift += radixBits {
		var next [1 << radixBits]int
		for _, k := range src {
			next[(k>>skip-lo)>>shift&(1<<radixBits-1)]++
		}
		at := 0
		for d, c := range next {
			next[d] = at
			at += c
		}
		for _, k := range src {
			d := (k>>skip - lo) >> shift & (1<<radixBits - 1)
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return tmp
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// blockSum folds one block's run of records.
type blockSum struct {
	addr     mem.BlockAddr
	cached   bool // some cache holds tokens or the owner token
	cTok     int  // tokens across caches
	cOwn     int  // caches holding the owner token
	maxTok   int  // largest single-cache token count
	nHolders int  // caches holding >= 1 token
	fTok     int  // tokens in flight, summed over ledgers
	fOwn     int
}

// fold sums the run of records starting at recs[i] and returns the index
// just past it.
func (cen *Census) fold(i int) (blockSum, int) {
	h := blockSum{addr: cen.recs[i].addr}
	for ; i < len(cen.recs) && cen.recs[i].addr == h.addr; i++ {
		r := cen.recs[i]
		if r.src >= len(cen.l2s) {
			h.fTok += r.tokens
			h.fOwn += r.owners
			continue
		}
		h.cached = true
		h.cTok += r.tokens
		h.cOwn += r.owners
		h.maxTok = max(h.maxTok, r.tokens)
		if r.tokens > 0 {
			h.nHolders++
		}
	}
	return h, i
}

// holdersOf lists, in core order, the caches holding >= 1 token of the
// block whose run starts at recs[i].
func (cen *Census) holdersOf(i int) []int {
	cen.holders = cen.holders[:0]
	for a := cen.recs[i].addr; i < len(cen.recs) && cen.recs[i].addr == a; i++ {
		if r := cen.recs[i]; r.src < len(cen.l2s) && r.tokens > 0 {
			cen.holders = append(cen.holders, r.src)
		}
	}
	return cen.holders
}

// invariant wraps a check over the census: run on its own, it takes the
// census first; run by a Checker, it reads the sweep's snapshot.
func (cen *Census) invariant(name string, check func() []string) Invariant {
	return Invariant{Name: name, census: cen, Check: func() []string {
		if !cen.held {
			cen.take()
		}
		return check()
	}}
}

// conserve checks one block's balance and queues its reports.
func (cen *Census) conserve(total int, a mem.BlockAddr, cTok, cOwn, mTok int, mOwn bool, fTok, fOwn int) {
	sum := cTok + mTok + fTok
	owners := cOwn + b2i(mOwn) + fOwn
	if sum != total {
		cen.viols = append(cen.viols, violation{a, fmt.Sprintf(
			"block %d: %d tokens (caches %d + memory %d + inflight %d), want %d",
			a, sum, cTok, mTok, fTok, total)})
	}
	if owners != 1 {
		cen.viols = append(cen.viols, violation{a, fmt.Sprintf("block %d: %d owner tokens, want 1", a, owners)})
	}
}

// TokenConservation builds the conservation invariant: every block's
// tokens across caches, its home memory controller, and the in-flight
// ledgers sum to total, with exactly one owner token. Reports come in
// block address order.
func TokenConservation(total int, cen *Census) Invariant {
	return cen.invariant("token-conservation", func() []string {
		cen.viols = cen.viols[:0]
		nMem := uint64(len(cen.mcs))
		// Blocks some cache or ledger holds custody of.
		for i := 0; i < len(cen.recs); {
			h, next := cen.fold(i)
			i = next
			mTok, mOwn, present := cen.mcs[uint64(h.addr)%nMem].Peek(h.addr)
			if !present {
				// Reset state: memory holds everything.
				mTok, mOwn = total, true
			}
			cen.conserve(total, h.addr, h.cTok, h.cOwn, mTok, mOwn, h.fTok, h.fOwn)
		}
		// Every other materialized line, at its home: each controller's
		// lines ascend, so one cursor per controller skips the blocks
		// checked above.
		for j, mc := range cen.mcs {
			p := 0
			mc.ForEachLine(func(a mem.BlockAddr, tokens int, owner bool) {
				for p < len(cen.recs) && cen.recs[p].addr < a {
					p++
				}
				if (p < len(cen.recs) && cen.recs[p].addr == a) || uint64(a)%nMem != uint64(j) {
					return
				}
				cen.conserve(total, a, 0, 0, tokens, owner, 0, 0)
			})
		}
		if len(cen.viols) == 0 {
			return nil
		}
		slices.SortStableFunc(cen.viols, func(x, y violation) int { return cmp.Compare(x.addr, y.addr) })
		out := make([]string, len(cen.viols))
		for i, v := range cen.viols {
			out[i] = v.text
		}
		return out
	})
}

// SingleWriter builds the coherence-state invariant: a cache holding all
// tokens of a block (write permission) must be its only cache holder, and
// at most one cache holds the owner token. Unlike conservation this reads
// only the census's cache records, so it cross-checks the ledger-based
// invariant.
func SingleWriter(total int, cen *Census) Invariant {
	return cen.invariant("single-writer", func() []string {
		var out []string
		for i := 0; i < len(cen.recs); {
			h, next := cen.fold(i)
			if h.cached {
				if h.cTok > total {
					out = append(out, fmt.Sprintf("block %d: caches hold %d tokens > total %d",
						h.addr, h.cTok, total))
				}
				if h.cOwn > 1 {
					out = append(out, fmt.Sprintf("block %d: %d caches hold the owner token", h.addr, h.cOwn))
				}
				if h.maxTok == total && h.nHolders > 1 {
					out = append(out, fmt.Sprintf(
						"block %d: a writer coexists with other holders (cores %v)", h.addr, cen.holdersOf(i)))
				}
			}
			i = next
		}
		return out
	})
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
