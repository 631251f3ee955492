// Package partition computes topology-aware snoop-domain partitions of the
// mesh for the partitioned simulation machine.
//
// The planner replaces the fixed four-quadrant invariant: it builds a
// weighted affinity graph over the mesh nodes (vCPU placement groups cores
// of the same VM, content-sharing friendship couples VM pairs, and a small
// baseline affinity keeps neighbours together), then evaluates guillotine
// grid tilings of the mesh — every axis-aligned rectangle is XY-convex, so
// any such tiling is a valid snoop-domain partition for the XY-routed mesh
// — and picks the cut minimizing
//
//	cost = cut weight + serialization penalty
//
// where the serialization penalty favours more, smaller domains. A
// deterministic KL-style
// refinement pass then shifts individual split lines by one row/column
// while that lowers the cut, which handles uneven VM geometries.
//
// The resulting Plan is a pure function of the configuration, and so are
// the partitioned machine's results, which depend on the domain
// assignment.
package partition

import (
	"fmt"
	"strings"
)

// Weights tunes the affinity graph. The defaults make intra-VM edges
// dominate the baseline by almost two orders of magnitude, so a tiling that
// splits a VM is chosen only when no whole-VM tiling offers comparable
// parallelism.
type Weights struct {
	SameVM   int // adjacent cores running vCPUs of the same VM
	FriendVM int // adjacent cores of content-sharing friend VMs
	Base     int // every adjacent node pair (mesh locality)
	Serial   int // per-core critical-path penalty of the largest domain
}

// DefaultWeights returns the planner's standard affinity weights.
func DefaultWeights() Weights {
	return Weights{SameVM: 64, FriendVM: 16, Base: 1, Serial: 48}
}

// Input describes the machine geometry the planner partitions.
type Input struct {
	Width, Height int
	// CoreGroup[i] labels core i (row-major) with its initial VM, or -1 for
	// an idle core. Cores of one group attract each other.
	CoreGroup []int
	// Friends maps a VM group to its content-sharing friend (both
	// directions listed, or either; -1 / absent = no friend).
	Friends map[int]int
	// MCCorner[j] gives memory controller j's corner coordinates.
	MCCorner [][2]int
	// MaxDomains caps the domain count (0 = number of cores).
	MaxDomains int
	// Weights used for the affinity graph; zero value = DefaultWeights.
	Weights Weights
}

// Plan is a computed snoop-domain partition.
type Plan struct {
	Domains int
	GX, GY  int   // grid tiling dimensions (domains = GX*GY before merge)
	XSplit  []int // ascending interior split columns (len GX-1)
	YSplit  []int // ascending interior split rows (len GY-1)

	CoreDom []int32 // core index (row-major) -> domain
	MCDom   []int32 // memory controller index -> domain

	CutEdges  int // mesh links crossing a domain boundary
	CutWeight int // total affinity weight of cut edges
	Cost      int // cut weight + serialization penalty (planner objective)

	// SpansVM reports whether any VM's initial placement crosses a domain
	// boundary (such configs need replicated snoop-filter state).
	SpansVM bool
}

// Compute returns the best partition for the input. A one-domain plan is
// a machine without cross-domain traffic, run like any other plan.
func Compute(in Input) Plan {
	w := in.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	W, H := in.Width, in.Height
	if W <= 0 || H <= 0 {
		return Plan{Domains: 1, GX: 1, GY: 1}
	}
	maxD := in.MaxDomains
	if maxD <= 0 {
		maxD = W * H
	}

	ew := edgeWeights(in, w)

	best := Plan{}
	haveBest := false
	for gx := 1; gx <= W; gx++ {
		for gy := 1; gy <= H; gy++ {
			if gx*gy > maxD {
				continue
			}
			p := evalTiling(in, w, ew, gx, gy)
			if !haveBest || better(p, best) {
				best = p
				haveBest = true
			}
		}
	}
	best.finish(in)
	return best
}

// better orders candidate plans: lower cost wins; ties prefer more domains
// (more parallelism at equal cost), then wider grids, then taller — a total
// deterministic order.
func better(a, b Plan) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Domains != b.Domains {
		return a.Domains > b.Domains
	}
	if a.GX != b.GX {
		return a.GX > b.GX
	}
	return a.GY > b.GY
}

// edgeWeights precomputes the affinity of every horizontal and vertical
// mesh edge. horiz[y*W+x] is the weight of (x,y)-(x+1,y); vert[y*W+x] of
// (x,y)-(x,y+1).
func edgeWeights(in Input, w Weights) (ew struct{ horiz, vert []int }) {
	W, H := in.Width, in.Height
	group := func(x, y int) int {
		i := y*W + x
		if i >= len(in.CoreGroup) {
			return -1
		}
		return in.CoreGroup[i]
	}
	affinity := func(a, b int) int {
		wt := w.Base
		if a >= 0 && a == b {
			wt += w.SameVM
		} else if a >= 0 && b >= 0 {
			if f, ok := in.Friends[a]; ok && f == b {
				wt += w.FriendVM
			} else if f, ok := in.Friends[b]; ok && f == a {
				wt += w.FriendVM
			}
		}
		return wt
	}
	ew.horiz = make([]int, W*H)
	ew.vert = make([]int, W*H)
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			if x+1 < W {
				ew.horiz[y*W+x] = affinity(group(x, y), group(x+1, y))
			}
			if y+1 < H {
				ew.vert[y*W+x] = affinity(group(x, y), group(x, y+1))
			}
		}
	}
	return ew
}

// evalTiling scores one gx x gy guillotine tiling, refining its split lines
// greedily before costing.
func evalTiling(in Input, w Weights, ew struct{ horiz, vert []int }, gx, gy int) Plan {
	W, H := in.Width, in.Height
	xs := uniformSplits(W, gx)
	ys := uniformSplits(H, gy)

	// KL-style refinement: shift each split line by one column/row while it
	// lowers the cut weight. First-improvement, deterministic order, bounded
	// passes; a split line never collapses a run to zero width.
	for pass := 0; pass < 8; pass++ {
		improved := false
		for i := range xs {
			improved = refineSplit(xs, i, W, func() int { return cutWeightX(ew, in, xs) }) || improved
		}
		for i := range ys {
			improved = refineSplit(ys, i, H, func() int { return cutWeightY(ew, in, ys) }) || improved
		}
		if !improved {
			break
		}
	}

	p := Plan{GX: gx, GY: gy, XSplit: xs, YSplit: ys, Domains: gx * gy}
	p.CutWeight = cutWeightX(ew, in, xs) + cutWeightY(ew, in, ys)
	p.CutEdges = cutEdges(in, xs, ys)
	p.Cost = p.CutWeight + w.Serial*ceilDiv(W*H, p.Domains)
	return p
}

// refineSplit tries moving split line i one step each way, keeping the move
// that lowers cost (strict improvement, so refinement terminates).
func refineSplit(splits []int, i, limit int, cost func() int) bool {
	lo := 1
	if i > 0 {
		lo = splits[i-1] + 1
	}
	hi := limit - 1
	if i+1 < len(splits) {
		hi = splits[i+1] - 1
	}
	cur := cost()
	orig := splits[i]
	bestPos, bestCost := orig, cur
	for _, pos := range [2]int{orig - 1, orig + 1} {
		if pos < lo || pos > hi {
			continue
		}
		splits[i] = pos
		if c := cost(); c < bestCost {
			bestPos, bestCost = pos, c
		}
	}
	splits[i] = bestPos
	return bestPos != orig
}

// uniformSplits returns the n-1 interior split positions dividing length
// evenly (earlier runs get the remainder, matching integer strides).
func uniformSplits(length, n int) []int {
	splits := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		splits = append(splits, i*length/n)
	}
	return splits
}

// cutWeightX sums the affinity of horizontal edges crossing vertical split
// lines (edges between column s-1 and s for each split s).
func cutWeightX(ew struct{ horiz, vert []int }, in Input, xs []int) int {
	W, H := in.Width, in.Height
	total := 0
	for _, s := range xs {
		for y := 0; y < H; y++ {
			total += ew.horiz[y*W+s-1]
		}
	}
	return total
}

// cutWeightY sums the affinity of vertical edges crossing horizontal split
// lines.
func cutWeightY(ew struct{ horiz, vert []int }, in Input, ys []int) int {
	W := in.Width
	total := 0
	for _, s := range ys {
		for x := 0; x < W; x++ {
			total += ew.vert[(s-1)*W+x]
		}
	}
	return total
}

// cutEdges counts mesh links crossing any domain boundary.
func cutEdges(in Input, xs, ys []int) int {
	return len(xs)*in.Height + len(ys)*in.Width
}

// finish derives the per-core and per-MC domain assignments from the chosen
// split lines.
func (p *Plan) finish(in Input) {
	W, H := in.Width, in.Height
	domAt := func(x, y int) int32 {
		tx, ty := 0, 0
		for _, s := range p.XSplit {
			if x >= s {
				tx++
			}
		}
		for _, s := range p.YSplit {
			if y >= s {
				ty++
			}
		}
		return int32(ty*p.GX + tx)
	}
	p.CoreDom = make([]int32, W*H)
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			p.CoreDom[y*W+x] = domAt(x, y)
		}
	}
	p.MCDom = make([]int32, len(in.MCCorner))
	for j, c := range in.MCCorner {
		p.MCDom[j] = domAt(c[0], c[1])
	}
	groupDom := map[int]int32{}
	for i, g := range in.CoreGroup {
		if g < 0 || i >= len(p.CoreDom) {
			continue
		}
		if d, ok := groupDom[g]; !ok {
			groupDom[g] = p.CoreDom[i]
		} else if d != p.CoreDom[i] {
			p.SpansVM = true
		}
	}
}

// DomainOf returns the domain of mesh coordinate (x, y).
func (p *Plan) DomainOf(x, y, width int) int32 { return p.CoreDom[y*width+x] }

// String renders the plan for the -dump-partition debug output: the domain
// grid, the cut summary, and the MC assignment.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition: %d domain(s), %dx%d grid, cut %d edge(s) weight %d cost %d\n",
		p.Domains, p.GX, p.GY, p.CutEdges, p.CutWeight, p.Cost)
	if len(p.CoreDom) > 0 && p.GX > 0 {
		// CoreDom is row-major over the full mesh.
		w := meshWidth(p)
		for y := 0; y*w < len(p.CoreDom); y++ {
			b.WriteString("  ")
			for x := 0; x < w; x++ {
				fmt.Fprintf(&b, "%2d ", p.CoreDom[y*w+x])
			}
			b.WriteString("\n")
		}
	}
	for j, d := range p.MCDom {
		fmt.Fprintf(&b, "  mc%d -> domain %d\n", j, d)
	}
	return b.String()
}

// meshWidth reconstructs the mesh width from the split lines and grid.
func meshWidth(p *Plan) int {
	// GX runs over width; XSplit are interior columns. The width itself is
	// not stored, so derive it from the core count and the Y grid: height =
	// GY runs; len(CoreDom) = W*H. Safe because String is debug-only.
	if len(p.YSplit) > 0 {
		h := 0
		// height >= last split + 1; width = len/hGuess. Walk plausible
		// heights until the division is exact.
		for h = p.YSplit[len(p.YSplit)-1] + 1; h <= len(p.CoreDom); h++ {
			if len(p.CoreDom)%h == 0 {
				return len(p.CoreDom) / h
			}
		}
	}
	// Single row of tiles: assume square-or-wider mesh.
	for w := p.GX; w <= len(p.CoreDom); w++ {
		if len(p.CoreDom)%w == 0 && len(p.CoreDom)/w <= w {
			return w
		}
	}
	return len(p.CoreDom)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
