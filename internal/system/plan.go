package system

// quadrantPlacement reports whether placeVMs pins each VM onto its own 2x2
// quadrant of a 4x4 mesh (the Table II geometry: up to four VMs of four
// vCPUs each on 16 cores). It is the one predicate both placement and the
// snoop-domain cut read.
func (c Config) quadrantPlacement() bool {
	return !c.LinearPlacement && c.Cores == 16 && c.VMs <= 4 && c.VCPUsPerVM == 4 && c.Mesh.Width == 4
}

// domains returns the number of snoop domains the machine is cut into:
// the four quadrants under quadrant placement, one domain otherwise.
func (c Config) domains() int {
	if c.quadrantPlacement() {
		return 4
	}
	return 1
}

// domainAt returns the snoop domain of mesh router (x, y): under quadrant
// placement the quadrant (y/2)*2 + x/2, which holds exactly one VM, and
// domain 0 otherwise. Cores and memory-controller corners both use it, so
// the cut never splits a VM.
func (c Config) domainAt(x, y int) int32 {
	if !c.quadrantPlacement() {
		return 0
	}
	return int32((y/2)*2 + x/2)
}

// needSync reports whether the machine must replicate and synchronize
// snoop-filter state across domains: vCPU migration and scheduled fault
// events can move or mutate per-VM registration outside its home domain.
// When false, every VM's filter state is written only from its own domain
// and one shared filter remains safe.
func (c Config) needSync() bool {
	return c.MigrationPeriodMs != 0 || len(c.faultEvents()) > 0
}
