package system

import (
	"fmt"
	"strings"

	"vsnoop/internal/mesh"
	"vsnoop/internal/partition"
	"vsnoop/internal/sim"
)

// initialPlacement returns the VM initially running on each core (row-major,
// -1 = idle), replicating placeVMs as a pure function of the config so the
// partition planner sees the same geometry the machine builds.
func (c Config) initialPlacement() []int {
	group := make([]int, c.Cores)
	for i := range group {
		group[i] = -1
	}
	if !c.LinearPlacement && c.Cores == 16 && c.VMs <= 4 && c.VCPUsPerVM == 4 && c.Mesh.Width == 4 {
		for vm := 0; vm < c.VMs; vm++ {
			x0, y0 := 2*(vm%2), 2*(vm/2)
			for idx := 0; idx < 4; idx++ {
				x, y := x0+idx%2, y0+idx/2
				group[y*4+x] = vm
			}
		}
		return group
	}
	c2 := 0
	for vm := 0; vm < c.VMs; vm++ {
		for idx := 0; idx < c.VCPUsPerVM; idx++ {
			group[c2] = vm
			c2++
		}
	}
	return group
}

// mcCorners returns the mesh coordinates of the configured memory
// controllers (the first MCs corners, matching machine wiring).
func (c Config) mcCorners() [][2]int {
	all := [4][2]int{
		{0, 0},
		{c.Mesh.Width - 1, 0},
		{0, c.Mesh.Height - 1},
		{c.Mesh.Width - 1, c.Mesh.Height - 1},
	}
	return append([][2]int(nil), all[:c.MCs]...)
}

// plannerFriends estimates content-sharing affinity for the planner: under
// ContentSharing, VMs running the same workload profile share pages, so
// adjacent same-profile VM pairs attract. This is a placement hint only —
// the cross-domain content protocol is correct for any cut.
func (c Config) plannerFriends() map[int]int {
	if !c.ContentSharing {
		return nil
	}
	friends := make(map[int]int)
	for vm := 0; vm+1 < c.VMs; vm += 2 {
		if c.workloadFor(vm) == c.workloadFor(vm+1) {
			friends[vm] = vm + 1
			friends[vm+1] = vm
		}
	}
	return friends
}

// PlanPartition computes the snoop-domain partition for this configuration.
// The plan is a pure function of the config, and so is the simulated event
// order built on it.
func (c Config) PlanPartition() partition.Plan {
	return partition.Compute(partition.Input{
		Width:     c.Mesh.Width,
		Height:    c.Mesh.Height,
		CoreGroup: c.initialPlacement(),
		Friends:   c.plannerFriends(),
		MCCorner:  c.mcCorners(),
	})
}

// needSync reports whether the machine must replicate and synchronize
// snoop-filter state across domains: vCPU migration, a VM placement
// spanning domains, or scheduled fault events can all move or mutate
// per-VM registration outside its home domain. When false, every VM's
// filter state is written only from its own domain and one shared filter
// remains safe.
func (c Config) needSync(p partition.Plan) bool {
	return c.MigrationPeriodMs != 0 || p.SpansVM || len(c.faultEvents()) > 0
}

// PartitionInfo renders the computed partition for the -dump-partition
// debug flag: the domain grid, cut summary, per-MC assignment, and the
// per-domain cross-domain horizons: the delay the machine puts on each
// domain's cross-domain protocol events (migration legs, filter deltas,
// holder probes; 0 when the plan has one domain).
func (c Config) PartitionInfo() string {
	p := c.PlanPartition()
	var b strings.Builder
	b.WriteString(p.String())
	// Horizons come from the mesh, which derives them from the cut. Build a
	// throwaway network with the plan's node->domain map to report them.
	nw := mesh.New(sim.NewEngine(), c.Mesh)
	nodeDom := make([]int32, 0, c.Cores+c.MCs)
	for y := 0; y < c.Mesh.Height; y++ {
		for x := 0; x < c.Mesh.Width; x++ {
			nw.Attach(x, y, nil)
			nodeDom = append(nodeDom, p.CoreDom[y*c.Mesh.Width+x])
		}
	}
	for j, corner := range c.mcCorners() {
		nw.Attach(corner[0], corner[1], nil)
		nodeDom = append(nodeDom, p.MCDom[j])
	}
	nw.Partition(nodeDom, p.Domains)
	for d, h := range nw.CrossHorizons() {
		fmt.Fprintf(&b, "  domain %d horizon %d cycle(s) (cross-domain protocol-event delay)\n", d, h)
	}
	fmt.Fprintf(&b, "  filter sync: %v\n", c.needSync(p))
	return b.String()
}
