package token

import (
	"cmp"
	"math/bits"
	"slices"

	"vsnoop/internal/mesh"
)

// Multicast is issueAttempt's multicast of snoop m from c to the cores of
// dests (core-bit words; no home controller), with parking on: it returns
// how many deliveries it queued and how many it parked (listed or
// derived; queued as well in shadow mode).
func (c *CacheCtrl) Multicast(dests []uint64, m *Msg) (queued, parked int) {
	r := c.pt.begin(c.Core, m)
	queued = c.Net.Multicast(c.Node, dests, nil, -1, c.P.CtrlBytes, m, &r.k)
	parked = r.k.Count()
	return queued + c.pt.end(c.Core, r, m), parked
}

// LastParked returns the deliveries c's latest record parked, listed and
// derived, in send order (key order): the record as its multicast closed
// it, less what was put back or dropped since.
func (c *CacheCtrl) LastParked() []mesh.Delivery {
	g := &c.pt.rings[c.Core]
	if g.n == 0 {
		return nil
	}
	r := &g.recs[(g.head+g.n-1)&(len(g.recs)-1)]
	var out []mesh.Delivery
	for _, p := range r.k.List {
		if p.Dst != noDst {
			out = append(out, p)
		}
	}
	for m := r.k.Derived; m != 0; m &= m - 1 {
		out = append(out, c.Net.DerivedDelivery(&r.k, mesh.NodeID(bits.TrailingZeros64(m))))
	}
	slices.SortFunc(out, func(a, b mesh.Delivery) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Derived returns how many of the deliveries c's latest record parked were
// derived rather than listed.
func (c *CacheCtrl) Derived() int {
	g := &c.pt.rings[c.Core]
	if g.n == 0 {
		return 0
	}
	return bits.OnesCount64(g.recs[(g.head+g.n-1)&(len(g.recs)-1)].k.Derived)
}
