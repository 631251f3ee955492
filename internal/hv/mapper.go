// Package hv models the hypervisor: vCPU-to-core placement for the
// detailed memory-system simulator (the machine drives the paper's periodic
// vCPU-shuffle approximation of VM relocation, Section V.C, through
// Mapper.Swap), and a Xen credit-scheduler simulation used to reproduce the
// real-system scheduling experiments of Section III (Figure 3 and Table I).
package hv

import (
	"fmt"
	"sort"

	"vsnoop/internal/mem"
)

// VCPU identifies one virtual CPU of a VM.
type VCPU struct {
	VM  mem.VMID
	Idx int
}

func (v VCPU) String() string { return fmt.Sprintf("vm%d.vcpu%d", v.VM, v.Idx) }

// NoVCPU is the sentinel for an idle core.
var NoVCPU = VCPU{VM: 0xFFFE, Idx: -1}

// Mapper tracks which vCPU occupies each physical core. The hypervisor
// updates it on every schedule/relocation decision; the virtual-snooping
// layer observes relocations to maintain vCPU map registers.
type Mapper struct {
	cores []VCPU
	where map[VCPU]int

	// OnRelocate fires when a vCPU changes physical core (from may be -1
	// at first placement).
	OnRelocate func(v VCPU, from, to int)

	// Relocations counts mapping changes (excluding first placements).
	Relocations uint64
}

// NewMapper creates a mapper for n physical cores, all idle.
func NewMapper(n int) *Mapper {
	m := &Mapper{cores: make([]VCPU, n), where: make(map[VCPU]int)}
	for i := range m.cores {
		m.cores[i] = NoVCPU
	}
	return m
}

// NumCores returns the number of physical cores.
func (m *Mapper) NumCores() int { return len(m.cores) }

// Place assigns v to core, displacing nothing (the core must be idle or
// running v already). It fires OnRelocate when v moves.
func (m *Mapper) Place(v VCPU, core int) {
	if cur := m.cores[core]; cur != NoVCPU && cur != v {
		panic(fmt.Sprintf("hv: core %d already runs %v", core, cur))
	}
	from, had := m.where[v]
	if had && from == core {
		return
	}
	if had {
		m.cores[from] = NoVCPU
		m.Relocations++
	} else {
		from = -1
	}
	m.cores[core] = v
	m.where[v] = core
	if m.OnRelocate != nil {
		m.OnRelocate(v, from, core)
	}
}

// Swap exchanges the vCPUs on two cores (the paper's relocation
// approximation: "two vCPUs from different VMs are randomly selected and
// their physical cores are exchanged").
func (m *Mapper) Swap(coreA, coreB int) {
	if coreA == coreB {
		return
	}
	a, b := m.cores[coreA], m.cores[coreB]
	m.cores[coreA], m.cores[coreB] = b, a
	if a != NoVCPU {
		m.where[a] = coreB
		m.Relocations++
		if m.OnRelocate != nil {
			m.OnRelocate(a, coreA, coreB)
		}
	}
	if b != NoVCPU {
		m.where[b] = coreA
		m.Relocations++
		if m.OnRelocate != nil {
			m.OnRelocate(b, coreB, coreA)
		}
	}
}

// CoreOf returns the physical core running v, or -1.
func (m *Mapper) CoreOf(v VCPU) int {
	if c, ok := m.where[v]; ok {
		return c
	}
	return -1
}

// On returns the vCPU running on a core (NoVCPU when idle).
func (m *Mapper) On(core int) VCPU { return m.cores[core] }

// VMOn returns the VM whose vCPU occupies core, or ok=false when idle.
func (m *Mapper) VMOn(core int) (mem.VMID, bool) {
	v := m.cores[core]
	if v == NoVCPU {
		return 0, false
	}
	return v.VM, true
}

// RunningCores returns the sorted cores currently running vCPUs of vm.
func (m *Mapper) RunningCores(vm mem.VMID) []int {
	var out []int
	for c, v := range m.cores {
		if v != NoVCPU && v.VM == vm {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}
