package check_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"vsnoop/internal/cache"
	"vsnoop/internal/check"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// The reference checker: the map-based per-block accumulation the census
// replaced, kept here verbatim in behaviour so the census can be held to
// it. It builds fresh maps on every call and visits blocks through a
// sorted address universe.

type refHolderSum struct {
	tokens  int
	owners  int
	maxTok  int
	holders []int
}

func refSumCaches(l2s []*cache.Cache) map[mem.BlockAddr]*refHolderSum {
	acc := make(map[mem.BlockAddr]*refHolderSum)
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
				h = &refHolderSum{}
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

func refSortedAddrs(m map[mem.BlockAddr]bool) []mem.BlockAddr {
	out := make([]mem.BlockAddr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refConservation(total int, l2s []*cache.Cache, mcs []*memctrl.Ctrl, leds ...*check.Ledger) []string {
	acc := refSumCaches(l2s)
	universe := make(map[mem.BlockAddr]bool, len(acc))
	for a := range acc {
		universe[a] = true
	}
	for _, mc := range mcs {
		mc.ForEachLine(func(a mem.BlockAddr, _ int, _ bool) { universe[a] = true })
	}
	for _, led := range leds {
		for _, a := range check.LedgerAddrs(led) {
			universe[a] = true
		}
	}
	var out []string
	for _, a := range refSortedAddrs(universe) {
		cTok, cOwn := 0, 0
		if h := acc[a]; h != nil {
			cTok, cOwn = h.tokens, h.owners
		}
		home := mcs[uint64(a)%uint64(len(mcs))]
		mTok, mOwn, present := home.Peek(a)
		if !present {
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

func refSingleWriter(total int, l2s []*cache.Cache) []string {
	acc := refSumCaches(l2s)
	universe := make(map[mem.BlockAddr]bool, len(acc))
	for a := range acc {
		universe[a] = true
	}
	var out []string
	for _, a := range refSortedAddrs(universe) {
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

// diffRig is a small machine with several interleaved memory controllers
// and two ledgers, so census records of every kind and every home occur.
type diffRig struct {
	eng   *sim.Engine
	ctrls []*token.CacheCtrl
	l2s   []*cache.Cache
	mcs   []*memctrl.Ctrl
	leds  []*check.Ledger
	total int
}

func newDiffRig(cores, nmc int) *diffRig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := token.DefaultParams(cores)
	r := &diffRig{eng: eng, total: p.TotalTokens, leds: []*check.Ledger{check.NewLedger(), check.NewLedger()}}

	coreNodes := make([]mesh.NodeID, cores)
	for i := range coreNodes {
		coreNodes[i] = net.Attach(i%4, i/4, nil)
	}
	mcNodes := make([]mesh.NodeID, nmc)
	for j := range mcNodes {
		mcNodes[j] = net.Attach(3*(j%2), 3*(j/2), nil)
		mc := &memctrl.Ctrl{Eng: eng, Net: net, Node: mcNodes[j], P: p, Cores: cores,
			Interleave: uint64(nmc), Residue: uint64(j)}
		mc.Init()
		mc.Obs = r.leds[j%2]
		net.SetHandler(mcNodes[j], mc.Handle)
		r.mcs = append(r.mcs, mc)
	}
	for i := 0; i < cores; i++ {
		l2 := cache.New(cache.Config{Name: "L2", SizeBytes: 4 * 1024, Ways: 4, BlockBytes: 64, HitLatency: 10})
		c := &token.CacheCtrl{
			Eng: eng, Net: net, Node: coreNodes[i], Core: i, L2: l2, P: p,
			MCNodes: mcNodes, Router: &broadcastRouter{cores: cores}, Cores: cores,
		}
		c.Obs = r.leds[i%2]
		c.Init()
		net.SetHandler(coreNodes[i], c.Handle)
		r.ctrls = append(r.ctrls, c)
		r.l2s = append(r.l2s, l2)
	}
	return r
}

// check runs both checkers, alone and through a Checker sweep, and
// returns the reference's reports.
func (r *diffRig) check(t *testing.T, label string) (cons, sw []string) {
	t.Helper()
	cons = refConservation(r.total, r.l2s, r.mcs, r.leds...)
	sw = refSingleWriter(r.total, r.l2s)

	cen := check.NewCensus(r.l2s, r.mcs, r.leds...)
	gotCons := check.TokenConservation(r.total, cen).Check()
	gotSW := check.SingleWriter(r.total, cen).Check()
	assertSame(t, label+" token-conservation", gotCons, cons)
	assertSame(t, label+" single-writer", gotSW, sw)

	c := &check.Checker{MaxViolations: 1 << 20}
	c.Add(check.TokenConservation(r.total, cen))
	c.Add(check.SingleWriter(r.total, cen))
	c.CheckNow()
	var want []string
	for _, v := range cons {
		want = append(want, "[0] token-conservation: "+v)
	}
	for _, v := range sw {
		want = append(want, "[0] single-writer: "+v)
	}
	assertSame(t, label+" Checker sweep", c.Violations, want)
	return cons, sw
}

func assertSame(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: census reports differ from the reference\ncensus:\n  %s\nreference:\n  %s",
			what, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCensusMatchesReference drives random transactions through small
// machines, stops some with messages still in flight, then corrupts cache
// lines and ledger balances at random (forged and lost tokens, extra
// owners, writers with company), and requires the census-based invariants
// to report exactly what the map-based reference reports, in the same
// order, after every step.
func TestCensusMatchesReference(t *testing.T) {
	seen := map[string]int{}
	kinds := []string{"tokens (caches", "owner tokens, want 1", "caches hold", "writer coexists"}
	for seed := uint64(1); seed <= 24; seed++ {
		rng := sim.NewRand(seed)
		r := newDiffRig(8, 1+int(seed%4))
		pool := make([]mem.BlockAddr, 40)
		for i := range pool {
			pool[i] = mem.BlockAddr(rng.Intn(1 << 12))
		}
		for round := 0; round < 12; round++ {
			for _, c := range r.ctrls {
				if rng.Bool(0.7) {
					c.Start(pool[rng.Intn(len(pool))], 1, mem.PagePrivate, rng.Bool(0.4), call, func() {})
				}
			}
			if round%3 == 2 {
				r.eng.RunUntil(r.eng.Now() + sim.Cycle(rng.Intn(60)))
				r.check(t, fmt.Sprintf("seed %d round %d (in flight)", seed, round))
			}
			r.eng.Run()
			r.check(t, fmt.Sprintf("seed %d round %d", seed, round))
		}
		for step := 0; step < 30; step++ {
			a := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0: // forge or lose tokens in a cache
				l2 := r.l2s[rng.Intn(len(r.l2s))]
				b := l2.Lookup(a)
				if b == nil {
					b, _, _ = l2.Insert(a, 1)
				}
				b.Tokens = int16(rng.Intn(r.total+3) - 1)
			case 1: // a second owner, or a lost one
				l2 := r.l2s[rng.Intn(len(r.l2s))]
				if b := l2.Lookup(a); b != nil {
					b.Owner = !b.Owner
				} else if b, _, _ := l2.Insert(a, 1); b != nil {
					b.Tokens, b.Owner = 1, true
				}
			case 2: // a writer with company
				for _, i := range []int{rng.Intn(len(r.l2s)), rng.Intn(len(r.l2s))} {
					b := r.l2s[i].Lookup(a)
					if b == nil {
						b, _, _ = r.l2s[i].Insert(a, 1)
					}
					b.Tokens = int16(r.total)
				}
			case 3: // a ledger books a phantom transfer
				led := r.leds[rng.Intn(len(r.leds))]
				if rng.Bool(0.5) {
					led.Depart(a, rng.Intn(3), rng.Bool(0.3))
				} else {
					led.Arrive(a, rng.Intn(3), rng.Bool(0.3))
				}
			}
			cons, sw := r.check(t, fmt.Sprintf("seed %d corruption %d", seed, step))
			for _, v := range append(cons, sw...) {
				for _, k := range kinds {
					if strings.Contains(v, k) {
						seen[k]++
					}
				}
			}
		}
	}
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no seeded state produced a %q report: the comparison never covered it", k)
		}
	}
}

// TestRadixSort holds the census's key sort to a comparison sort: keys
// whose low skip bits ascend (a census key's record index), high parts
// unique or repeated, spans from one byte to the whole word, and a scratch
// buffer reused across calls, shorter than the keys or long enough.
func TestRadixSort(t *testing.T) {
	rng := sim.NewRand(3)
	var tmp []uint64
	for _, tc := range []struct {
		n          int
		bits, skip uint
		base       uint64
	}{
		{0, 8, 0, 0}, {1, 8, 1, 5}, {2, 8, 2, 0}, {100, 8, 7, 1 << 40}, {1000, 20, 10, 0},
		{5000, 36, 13, 1 << 20}, {3000, 64, 0, 0}, {3000, 52, 12, 0}, {64, 1, 7, 7},
	} {
		keys := make([]uint64, tc.n)
		for i := range keys {
			high := tc.base + rng.Uint64()>>(64-tc.bits)
			keys[i] = high<<tc.skip | uint64(i)&(1<<tc.skip-1)
		}
		want := append([]uint64(nil), keys...)
		sort.SliceStable(want, func(i, j int) bool { return want[i]>>tc.skip < want[j]>>tc.skip })
		tmp = check.RadixSort(keys, tmp, tc.skip)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("%d keys of %d bits above %d: key %d is %#x, want %#x", tc.n, tc.bits, tc.skip, i, keys[i], want[i])
			}
		}
	}
}
