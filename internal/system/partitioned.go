package system

// Cross-domain machinery of the machine: filter-replica deltas, vCPU
// migration as an ordered depart/arrive transaction, domain-local provider
// designation, and the holder-classification probe protocol. Every
// cross-domain effect lands one cross-domain horizon
// (mesh.Network.CrossHorizons) after its cause, the shortest latency a
// mesh message between the two domains could have. These delays are part
// of the model: the golden results pin them. Scheduled fault events and
// copy-on-write traps act on the whole machine at once.

import (
	"math/bits"

	"vsnoop/internal/cache"
	"vsnoop/internal/core"
	"vsnoop/internal/fault"
	"vsnoop/internal/hv"
	"vsnoop/internal/mem"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// Filter-replica delta opcodes, packed into the event's u payload as
// op<<48 | vm<<16 | core.
const (
	opRunClear uint64 = iota + 1
	opRunMapSet
	opMapClear
)

// filterOf returns the filter replica owned by domain d (the shared filter
// outside syncMode).
func (m *Machine) filterOf(d *domain) *core.Filter {
	if m.replicas != nil {
		return m.replicas[d.idx]
	}
	return m.Filter
}

// filters returns every filter the machine routes with: the replicas in
// syncMode, the shared filter otherwise. Setup-time settings go to all.
func (m *Machine) filters() []*core.Filter {
	if m.replicas != nil {
		return m.replicas
	}
	return []*core.Filter{m.Filter}
}

// filterContains reports whether core is in vm's map on any replica. The
// union is the right conservative notion for the offline invariant check:
// replicas may transiently differ by an in-flight delta, but the owning
// domain's register always covers its own cached blocks.
func (m *Machine) filterContains(vm mem.VMID, coreIdx int) bool {
	if m.replicas == nil {
		return m.Filter.Contains(vm, coreIdx)
	}
	for _, rep := range m.replicas {
		if rep.Contains(vm, coreIdx) {
			return true
		}
	}
	return false
}

// vcpuIndex maps a vCPU identity to its slot in m.vcpus (VM-major order,
// matching setupVMs).
func (m *Machine) vcpuIndex(id hv.VCPU) int { return int(id.VM)*m.cfg.VCPUsPerVM + id.Idx }

// vcpuAt returns the vcpu struct for id (nil for out-of-range identities).
func (m *Machine) vcpuAt(id hv.VCPU) *vcpu {
	i := m.vcpuIndex(id)
	if i < 0 || i >= len(m.vcpus) {
		return nil
	}
	return m.vcpus[i]
}

// chase reschedules a step/resume event that fired in the domain it was
// scheduled for (from) after its vCPU migrated away: send it toward the
// vCPU's current domain one cross-domain horizon ahead, hopping along
// from's own fwd row, not the vCPU's dom pointer. Each hop retests
// ownership on arrival, so
// a vCPU that moved again mid-chase is simply chased again; the depart
// always precedes the chased continuation at every hop (both paths add the
// same horizon, and the continuation was scheduled strictly after the
// depart's cause).
func (m *Machine) chase(v *vcpu, from uint64, fn sim.HandlerFn) {
	nxt := m.fwd[int(from)*m.nv+v.vix]
	m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[from], nxt, fn, v, uint64(nxt))
}

// broadcastDelta replays a register-file update of from's replica on every
// other replica, one cross-domain horizon ahead in each target's stream.
func (m *Machine) broadcastDelta(from *domain, op uint64, vm mem.VMID, coreIdx int) {
	at := m.Eng.Now() + m.crossHor[from.idx]
	u := op<<48 | uint64(uint16(vm))<<16 | uint64(uint16(coreIdx))
	for d := range m.doms {
		if int32(d) == from.idx {
			continue
		}
		m.Eng.ScheduleFnAtDom(at, int32(d), m.deltaFn, m.replicas[d], u)
	}
}

// applyDelta replays one replica delta on the target replica (the event
// arg). Apply* methods never fire hooks or count stats, so deltas cannot
// loop and every event is counted exactly once, on its owning domain.
func applyDelta(arg interface{}, u uint64) {
	f := arg.(*core.Filter)
	vm := mem.VMID(uint16(u >> 16))
	coreIdx := int(uint16(u))
	switch u >> 48 {
	case opRunClear:
		f.ApplyRunClear(vm, coreIdx)
	case opRunMapSet:
		f.ApplyRunSet(vm, coreIdx)
		f.ApplyMapSet(vm, coreIdx)
	case opMapClear:
		f.ApplyMapClear(vm, coreIdx)
	}
}

// beginMove starts a cross-domain vCPU migration (runtime relocations in
// syncMode; always invoked from domain 0, the single writer of the mapper).
// The move is a three-leg transaction — depart in the old core's domain,
// arrive in the new core's domain, ack back to dom0 — with the vCPU marked
// inflight so the shuffler and storms never double-move it. Its callers
// (the shuffle tick, storms, the relocation hook) all execute in domain 0.
func (m *Machine) beginMove(id hv.VCPU, from, to int) {
	v := m.vcpuAt(id)
	m.inflight[m.vcpuIndex(id)] = true
	m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[0], m.coreDom[from],
		m.departFn, v, uint64(from)<<16|uint64(to))
}

// handleDepart runs in the old core's domain. A depart landing inside an
// open coherence transaction is deferred to the completion callback — the
// controller's state machine must not lose its issuer mid-flight.
func (m *Machine) handleDepart(arg interface{}, u uint64) {
	v := arg.(*vcpu)
	from, to := int(u>>16), int(uint16(u))
	if v.inTxn {
		v.deferred, v.defFrom, v.defTo = true, from, to
		return
	}
	m.departNow(v, from, to)
}

// departNow performs the old-domain half of a migration: filter departure
// on the owning replica (plus run-bit deltas everywhere), waitq removal,
// live/warmup hand-off, and the arrive event in the new domain.
func (m *Machine) departNow(v *vcpu, from, to int) {
	dOld := v.dom
	m.replicas[dOld.idx].RelocateDepart(v.id.VM, from)
	m.broadcastDelta(dOld, opRunClear, v.id.VM, from)
	if v.parked {
		// Unhook from the old core's waitq (order-preserving); the vCPU
		// stays logically parked and re-issues its pending ref on arrival.
		cn := m.cores[from]
		q := cn.waitq
		for i, w := range q {
			if w == v {
				copy(q[i:], q[i+1:])
				cn.waitq = q[:len(q)-1]
				break
			}
		}
	}
	if !v.done {
		dOld.live--
		if m.cfg.WarmupRefs > 0 && v.executed < m.cfg.WarmupRefs && !dOld.warmed {
			dOld.warmLeft--
			if dOld.warmLeft == 0 {
				m.takeSnapshot(dOld)
			}
		}
	}
	v.core = to
	v.dom = m.domOfCore(to)
	// Hand off ownership in dOld's own location rows; the arrive completes
	// the transfer in the destination's rows.
	m.own[int(dOld.idx)*m.nv+v.vix] = false
	m.fwd[int(dOld.idx)*m.nv+v.vix] = v.dom.idx
	m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[dOld.idx], v.dom.idx, m.arriveFn, v, uint64(to))
}

// handleArrive runs in the new core's domain: filter arrival on the owning
// replica (plus registration deltas everywhere), the untagged-TLB flush,
// live/warmup hand-in, reissue of a parked reference, and the ack to dom0.
func (m *Machine) handleArrive(arg interface{}, u uint64) {
	v := arg.(*vcpu)
	to := int(u)
	d := v.dom
	m.own[int(d.idx)*m.nv+v.vix] = true
	m.fwd[int(d.idx)*m.nv+v.vix] = d.idx
	m.replicas[d.idx].RelocateArrive(v.id.VM, to)
	m.broadcastDelta(d, opRunMapSet, v.id.VM, to)
	if !m.cfg.TLB.Tagged {
		m.cores[to].tlb.FlushAll()
	}
	if !v.done {
		d.live++
		if !d.warmed && m.cfg.WarmupRefs > 0 && v.executed < m.cfg.WarmupRefs {
			d.warmLeft++
		}
	}
	if v.parked {
		v.parked = false
		m.issueRef(v, v.pending)
	}
	m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[d.idx], 0, m.ackFn, v, 0)
}

// shuffleTick is the periodic relocation of Section V.C: it runs in
// domain 0 so the mapper and the shuffle RNG have a single writer, and
// stops rescheduling once every stream has retired so the run can drain.
func (m *Machine) shuffleTick() {
	if m.retired >= len(m.vcpus) {
		return
	}
	m.shuffleOnce(m.shufRng)
	m.Eng.ScheduleFn(m.shufPeriod, m.tickFn, nil, 0)
}

// shuffleOnce makes up to 16 random picks of two cores and swaps the first
// pair that runs vCPUs of different VMs, neither with a move still in the
// air: the paper's relocation approximation ("we simulate migrations only
// across VMs"). A rejected pick burns a try, deterministically; after 16
// it gives up quietly.
func (m *Machine) shuffleOnce(rng *sim.Rand) {
	n := m.Mapper.NumCores()
	for try := 0; try < 16; try++ {
		a, b := rng.Intn(n), rng.Intn(n)
		va, vb := m.Mapper.On(a), m.Mapper.On(b)
		if va == hv.NoVCPU || vb == hv.NoVCPU || va.VM == vb.VM {
			continue
		}
		if m.inflight[m.vcpuIndex(va)] || m.inflight[m.vcpuIndex(vb)] {
			continue
		}
		m.Mapper.Swap(a, b)
		return
	}
}

// migrationStorm performs up to pairs cross-VM swaps back-to-back (a
// relocation burst that churns every vCPU map at once), drawing from the
// injector's stream. It returns the number of relocations performed.
func (m *Machine) migrationStorm(pairs int) int {
	before := m.Mapper.Relocations
	for p := 0; p < pairs; p++ {
		m.shuffleOnce(m.Injector.Rng)
	}
	return int(m.Mapper.Relocations - before)
}

// scheduleFaultEvents queues the plan's one-shot events (a plan with events
// always runs in syncMode). Every event fires in domain 0, the single
// writer for the injector's event counters and the mapper, and applies at
// once: map corruption on every filter replica, counter corruption on the
// target core's L2, and storms as ordinary cross-domain migrations.
func (m *Machine) scheduleFaultEvents() {
	m.Eng.SetCurDomain(0)
	for _, ev := range m.cfg.faultEvents() {
		ev := ev
		var fn sim.HandlerFn
		switch ev.Kind {
		case fault.EvCorruptMap:
			fn = func(_ interface{}, _ uint64) {
				m.Injector.Stats.MapCorruptions++
				for _, rep := range m.replicas {
					rep.CorruptMap(mem.VMID(ev.VM), ev.Core)
				}
			}
		case fault.EvCorruptCounter:
			fn = func(_ interface{}, _ uint64) {
				m.Injector.Stats.CounterCorruptions++
				if ev.Core < 0 || ev.Core >= len(m.cores) {
					return
				}
				delta := ev.Count
				if delta == 0 {
					delta = -1
				}
				m.cores[ev.Core].l2.CorruptResidence(mem.VMID(ev.VM), delta)
			}
		case fault.EvMigrationStorm:
			fn = func(_ interface{}, _ uint64) {
				pairs := ev.Count
				if pairs <= 0 {
					pairs = 4
				}
				m.Injector.Stats.StormRelocations += uint64(m.migrationStorm(pairs))
			}
		}
		m.Eng.ScheduleFnAt(ev.At, fn, nil, 0)
	}
}

// translate resolves a guest page through the machine's COW overlay
// first, falling back to the (runtime-immutable) global page tables.
func (m *Machine) translate(vm mem.VMID, gp mem.GuestPage) mem.Translation {
	if tr, ok := m.cow[mem.CowKey(vm, gp)]; ok {
		return tr
	}
	return m.MM.Translate(vm, gp)
}

// initFriendTable snapshots the post-merge friend relation into flat
// arrays once, so neither filter setup nor holder classification asks the
// memory manager again.
func (m *Machine) initFriendTable() {
	m.friendOf = make([]mem.VMID, m.cfg.VMs)
	m.hasFriend = make([]bool, m.cfg.VMs)
	for vm := 0; vm < m.cfg.VMs; vm++ {
		if fr, ok := m.MM.FriendOf(mem.VMID(vm)); ok {
			m.friendOf[vm] = fr
			m.hasFriend[vm] = true
		}
	}
}

// domOracle is the memory controllers' RO-provider oracle: it scans only
// the MC's own domain's caches. A provider in another
// domain is missed — a safe false negative costing one DRAM read — and the
// answer depends only on the partition.
type domOracle struct {
	m *Machine
	d *domain
}

// ROProviderAmong reads the snooped cores' words against the holder
// bitset (Holds): only a core of the domain that holds the block can hold
// its provider copy.
func (o domOracle) ROProviderAmong(addr mem.BlockAddr, cores []uint64) bool {
	for wi, w := range cores {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if o.m.coreDom[i] != o.d.idx {
				continue
			}
			if l2 := o.m.cores[i].l2; l2.Holds(addr) && l2.Lookup(addr).Provider {
				return true
			}
		}
	}
	return false
}

// onFillDom designates RO provider copies with a domain-local scan: the
// first copy of a content-shared block brought into a VM within this
// domain becomes a provider (at most one provider per VM per domain).
func (m *Machine) onFillDom(d *domain, b *cache.Block, t *token.Txn) {
	if t.Page != mem.PageROShared || t.Write {
		return
	}
	for _, ci := range d.cores {
		l2 := m.cores[ci].l2
		if !l2.Holds(t.Addr) {
			continue
		}
		if ob := l2.Lookup(t.Addr); ob != b && ob.Provider && ob.VM == t.VM {
			return // this VM already has a provider in this domain
		}
	}
	b.Provider = true
}

// holderProbe is one in-flight cross-domain holder classification for a
// content-shared miss. The immutable fields (addr, vm, srcDom) are written
// before the probe is sent and only read by remote handlers; bits and
// remaining are owned by the source domain (remote scans travel back in
// the reply's u payload).
type holderProbe struct {
	addr      mem.BlockAddr
	vm        mem.VMID
	srcDom    int32
	remaining int
	bits      uint64
}

// holder-classification bits: 1 = same VM, 2 = friend VM, 4 = any other.
const (
	holderIntra  = 1
	holderFriend = 2
	holderOther  = 4
)

// getHolderProbe pops a probe from d's freelist, or allocates one.
func (m *Machine) getHolderProbe(d *domain) *holderProbe {
	if n := len(d.probes); n > 0 {
		p := d.probes[n-1]
		d.probes = d.probes[:n-1]
		return p
	}
	return &holderProbe{}
}

// scanHolder classifies the holders of addr among d's own caches.
func (m *Machine) scanHolder(d *domain, addr mem.BlockAddr, vm mem.VMID) uint64 {
	var bits uint64
	var fr mem.VMID
	hasFr := false
	if i := int(vm); i >= 0 && i < len(m.friendOf) {
		fr, hasFr = m.friendOf[i], m.hasFriend[i]
	}
	for _, ci := range d.cores {
		l2 := m.cores[ci].l2
		if !l2.Holds(addr) {
			continue
		}
		b := l2.Lookup(addr)
		if b.Tokens == 0 {
			continue
		}
		switch {
		case b.VM == vm:
			bits |= holderIntra
		case hasFr && b.VM == fr:
			bits |= holderFriend
		default:
			bits |= holderOther
		}
	}
	return bits
}

// probeHolders implements the Table VI measurement: at an L2 miss on a
// content-shared page, find the best possible data holder. It scans the
// local domain synchronously, probes every other domain one cross-domain
// horizon away, and counts the holder class on the last reply (credited
// to the requesting domain's stats). A one-domain machine has nothing to
// probe and counts at once.
func (m *Machine) probeHolders(d *domain, addr mem.BlockAddr, vm mem.VMID) {
	bits := m.scanHolder(d, addr, vm)
	if len(m.doms) == 1 {
		d.st.countHolder(bits)
		return
	}
	p := m.getHolderProbe(d)
	p.addr, p.vm, p.srcDom = addr, vm, d.idx
	p.bits = bits
	p.remaining = len(m.doms) - 1
	at := m.Eng.Now() + m.crossHor[d.idx]
	for _, od := range m.doms {
		if od.idx != d.idx {
			m.Eng.ScheduleFnAtDom(at, od.idx, m.classifyReqFn, p, uint64(od.idx))
		}
	}
}

// handleClassifyReq runs in the probed domain (u): scan its caches and
// reply to the source with the holder bits in the event payload.
func (m *Machine) handleClassifyReq(arg interface{}, u uint64) {
	p := arg.(*holderProbe)
	d := m.doms[u]
	bits := m.scanHolder(d, p.addr, p.vm)
	m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[d.idx], p.srcDom, m.classifyRepFn, p, bits)
}

// handleClassifyRep runs in the probe's source domain: fold the remote
// bits and, on the last reply, count the holder class and recycle the
// probe.
func (m *Machine) handleClassifyRep(arg interface{}, u uint64) {
	p := arg.(*holderProbe)
	p.bits |= u
	p.remaining--
	if p.remaining > 0 {
		return
	}
	d := m.doms[p.srcDom]
	d.st.countHolder(p.bits)
	d.probes = append(d.probes, p)
}

// countHolder counts one holder classification by precedence: intra-VM
// over friend over other over memory.
func (s *Stats) countHolder(bits uint64) {
	switch {
	case bits&holderIntra != 0:
		s.HolderIntraVM++
	case bits&holderFriend != 0:
		s.HolderFriend++
	case bits&holderOther != 0:
		s.HolderOther++
	default:
		s.HolderMemory++
	}
}
