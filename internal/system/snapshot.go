package system

// Optimistic (timewarp) execution support: machineState adapts the
// machine's per-domain model state to sim.ShardState, so the sharded
// engine's breathing-time-buckets mode can checkpoint, roll back, and
// commit model state alongside its own event queues.
//
// The checkpoint of one domain is a flat-slice copy of everything its
// events mutate at runtime: the statistics value, the vCPU structs it owns
// (via the vlist maintained by the depart/arrive handlers), the caches,
// TLBs, and coherence controllers of its cores, its corner memory
// controllers, its mesh link arbitration and traffic slot, its filter
// replica (syncMode), its own/fwd location rows, the holder-probe registry
// state, and — for domain 0 — the mapper, the inflight table, and the
// shuffle RNG. Insert-only structures (the COW overlay) and cross-epoch
// logs (the arrival log) checkpoint as marks into undo logs instead of
// full copies.
//
// Restore ordering is load-bearing: arrivals are undone newest-first
// BEFORE the checkpointed vlists are restored. A vCPU that both departed
// and arrived inside one epoch appears in the departing domain's saved
// vlist AND in the shard's arrival log; undoing the arrival first rewinds
// it to its in-flight (post-depart) state, and the vlist restore then
// rewinds it to the checkpoint. A vCPU that was in flight at the
// checkpoint (committed depart, speculative arrive) appears only in the
// log, and the undo alone restores it. The log is per shard, not per
// domain, because a chain of moves across domains of one shard can execute
// within a single epoch and must unwind in reverse execution order — which
// the shard's single goroutine records chronologically for free.

import (
	"vsnoop/internal/cache"
	"vsnoop/internal/core"
	"vsnoop/internal/hv"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/tlb"
	"vsnoop/internal/token"
	"vsnoop/internal/workload"
)

// arriveSave is one entry of a shard's arrival undo log: the vCPU and its
// complete pre-arrival state, captured by handleArrive before any mutation.
//
//vsnoop:owned
type arriveSave struct {
	v   *vcpu
	st  vcpu
	gen workload.GenState
}

// vcpuSave is one owned vCPU's checkpointed state (the struct is flat —
// pointers in it are identities, not owned sub-state).
type vcpuSave struct {
	v   *vcpu
	st  vcpu
	gen workload.GenState
}

// probeSave is the source-domain-owned state of one registered holder
// probe. The identity fields (addr/vm/srcDom) are rewritten on every
// allocation before any reader can see them, so they need no checkpoint.
type probeSave struct {
	remaining int
	bits      uint64
}

// domSnap is one domain's checkpoint. Buffers are reused across saves, so
// steady-state checkpointing allocates only when a footprint grows.
//
//vsnoop:owned
type domSnap struct {
	st       Stats
	live     int
	warmLeft int
	warmed   bool

	vs      []vcpuSave
	cowMark int

	probeFree []int32
	probeSt   []probeSave

	ownRow []bool
	fwdRow []int32

	waitq [][]*vcpu
	l1    []cache.Snap
	l2    []cache.Snap
	tlbs  []tlb.Snap
	ctrls []token.CtrlSnap
	mcs   []memctrl.Snap

	mesh   mesh.DomainSnap
	filter core.FilterSnap

	// Domain-0 extras (syncMode): the mapper, migration bookkeeping, and
	// the shuffle RNG are owned by the shard hosting domain 0.
	mapper   hv.MapperSnap
	inflight []bool
	retired  int
	shufRng  sim.Rand
}

// shardSnap is one checkpoint slot of one shard: its domains' snapshots
// plus the arrival-log mark.
type shardSnap struct {
	doms       []domSnap
	arriveMark int
}

// machineState implements sim.ShardState over the machine. Every method
// runs on the shard's own goroutine in a barrier-separated phase, touching
// only state that shard's domains own.
type machineState struct {
	m      *Machine
	domsOf [][]int // shard -> indices of the domains it executes
	snaps  [][]*shardSnap
}

// newMachineState builds the adapter and the per-shard arrival logs.
func newMachineState(m *Machine) *machineState {
	k := m.sharded.Shards()
	ms := &machineState{m: m, domsOf: make([][]int, k), snaps: make([][]*shardSnap, k)}
	for d := range m.doms {
		s := int(m.domShard[d])
		ms.domsOf[s] = append(ms.domsOf[s], d)
	}
	m.twLog = make([][]arriveSave, k)
	return ms
}

// Save checkpoints shard's model state into the given slot.
func (ms *machineState) Save(shard, slot int) {
	for len(ms.snaps[shard]) <= slot {
		ms.snaps[shard] = append(ms.snaps[shard], &shardSnap{})
	}
	sn := ms.snaps[shard][slot]
	sn.arriveMark = len(ms.m.twLog[shard])
	if len(sn.doms) != len(ms.domsOf[shard]) {
		sn.doms = make([]domSnap, len(ms.domsOf[shard]))
	}
	for i, di := range ms.domsOf[shard] {
		ms.m.saveDomain(ms.m.doms[di], &sn.doms[i])
	}
}

// Restore rewinds shard's model state to the given slot: undo logged
// arrivals newest-first down to the slot's mark, then restore each owned
// domain's checkpoint.
func (ms *machineState) Restore(shard, slot int) {
	m := ms.m
	sn := ms.snaps[shard][slot]
	log := m.twLog[shard]
	for i := len(log) - 1; i >= sn.arriveMark; i-- {
		e := &log[i]
		*e.v = e.st
		e.v.gen.(*workload.Generator).SetState(e.gen)
	}
	m.twLog[shard] = log[:sn.arriveMark]
	for i, di := range ms.domsOf[shard] {
		m.restoreDomain(m.doms[di], &sn.doms[i])
	}
}

// Commit truncates the epoch-local undo logs: everything below the commit
// horizon is final, so the arrival log, the COW insert logs, and the
// cache/memory-controller checkpoint journals all reset (the journals also
// disarm until the next epoch-base Save).
func (ms *machineState) Commit(shard int) {
	m := ms.m
	m.twLog[shard] = m.twLog[shard][:0]
	for _, di := range ms.domsOf[shard] {
		d := m.doms[di]
		d.cowLog = d.cowLog[:0]
		for _, ci := range d.cores {
			cn := m.cores[ci]
			cn.l1.CommitSnap()
			cn.l2.CommitSnap()
			cn.tlb.CommitSnap()
		}
		for _, mi := range d.mcs {
			m.mcs[mi].CommitSnap()
		}
	}
}

// saveDomain copies domain d's mutable state into s.
func (m *Machine) saveDomain(d *domain, s *domSnap) {
	s.st = *d.st
	s.live, s.warmLeft, s.warmed = d.live, d.warmLeft, d.warmed

	s.vs = s.vs[:0]
	for _, v := range d.vlist {
		s.vs = append(s.vs, vcpuSave{v: v, st: *v, gen: v.gen.(*workload.Generator).State()})
	}
	s.cowMark = len(d.cowLog)

	s.probeFree = s.probeFree[:0]
	for _, p := range d.probes {
		s.probeFree = append(s.probeFree, p.idx)
	}
	s.probeSt = s.probeSt[:0]
	for _, p := range d.allProbes {
		s.probeSt = append(s.probeSt, probeSave{remaining: p.remaining, bits: p.bits})
	}

	row := int(d.idx) * m.nv
	s.ownRow = append(s.ownRow[:0], m.own[row:row+m.nv]...)
	s.fwdRow = append(s.fwdRow[:0], m.fwd[row:row+m.nv]...)

	nc := len(d.cores)
	if len(s.waitq) != nc {
		s.waitq = make([][]*vcpu, nc)
		s.l1 = make([]cache.Snap, nc)
		s.l2 = make([]cache.Snap, nc)
		s.tlbs = make([]tlb.Snap, nc)
		s.ctrls = make([]token.CtrlSnap, nc)
	}
	for i, ci := range d.cores {
		cn := m.cores[ci]
		s.waitq[i] = append(s.waitq[i][:0], cn.waitq...)
		cn.l1.Save(&s.l1[i])
		cn.l2.Save(&s.l2[i])
		cn.tlb.Save(&s.tlbs[i])
		cn.ctrl.Save(&s.ctrls[i])
	}
	if len(s.mcs) != len(d.mcs) {
		s.mcs = make([]memctrl.Snap, len(d.mcs))
	}
	for i, mi := range d.mcs {
		m.mcs[mi].Save(&s.mcs[i])
	}
	m.Net.SaveDomain(int(d.idx), &s.mesh)
	if m.replicas != nil {
		m.replicas[d.idx].Save(&s.filter)
	}
	if d.idx == 0 && m.syncMode {
		m.Mapper.Save(&s.mapper)
		s.inflight = append(s.inflight[:0], m.inflight...)
		s.retired = m.retired
		if m.shufRng != nil {
			s.shufRng = *m.shufRng
		}
	}
}

// restoreDomain rewinds domain d to the state captured by saveDomain.
// Registry entries beyond the checkpoint (probes first allocated during
// rolled-back speculation) keep their current fields: a deterministic
// replay either re-pops the same freelist sequence (so the fields are
// rewritten identically) or never reaches them again before the next
// allocation overwrites them.
func (m *Machine) restoreDomain(d *domain, s *domSnap) {
	*d.st = s.st
	d.live, d.warmLeft, d.warmed = s.live, s.warmLeft, s.warmed

	d.vlist = d.vlist[:0]
	for i := range s.vs {
		sv := &s.vs[i]
		*sv.v = sv.st
		sv.v.gen.(*workload.Generator).SetState(sv.gen)
		d.vlist = append(d.vlist, sv.v)
	}
	for i := len(d.cowLog) - 1; i >= s.cowMark; i-- {
		delete(d.cow, d.cowLog[i])
	}
	d.cowLog = d.cowLog[:s.cowMark]

	for i := range s.probeSt {
		p := d.allProbes[i]
		p.remaining, p.bits = s.probeSt[i].remaining, s.probeSt[i].bits
	}
	d.probes = d.probes[:0]
	for _, ix := range s.probeFree {
		d.probes = append(d.probes, d.allProbes[ix])
	}

	row := int(d.idx) * m.nv
	copy(m.own[row:row+m.nv], s.ownRow)
	copy(m.fwd[row:row+m.nv], s.fwdRow)

	for i, ci := range d.cores {
		cn := m.cores[ci]
		cn.waitq = append(cn.waitq[:0], s.waitq[i]...)
		cn.l1.Restore(&s.l1[i])
		cn.l2.Restore(&s.l2[i])
		cn.tlb.Restore(&s.tlbs[i])
		cn.ctrl.Restore(&s.ctrls[i])
	}
	for i, mi := range d.mcs {
		m.mcs[mi].Restore(&s.mcs[i])
	}
	m.Net.RestoreDomain(int(d.idx), &s.mesh)
	if m.replicas != nil {
		m.replicas[d.idx].Restore(&s.filter)
	}
	if d.idx == 0 && m.syncMode {
		m.Mapper.Restore(&s.mapper)
		copy(m.inflight, s.inflight)
		m.retired = s.retired
		if m.shufRng != nil {
			*m.shufRng = s.shufRng
		}
	}
}

// snapshotSupported reports whether the machine's configuration is within
// the optimistic engine's checkpoint coverage: token protocol, no
// RegionScout, no online invariant checker or fault plan (both observe
// conservative window boundaries), synthetic reference streams, and —
// outside syncMode — a filter policy whose shared register file is
// runtime-read-only (base/broadcast; the counter policies mutate residence
// state through a single shared filter there).
func (m *Machine) snapshotSupported() bool {
	if m.sharded == nil || m.cfg.Directory || m.cfg.UseRegionScout {
		return false
	}
	if m.Checker != nil || m.Injector != nil {
		return false
	}
	if !m.syncMode {
		switch m.cfg.Filter.Policy {
		case core.PolicyBroadcast, core.PolicyBase:
		default:
			return false
		}
	}
	for _, v := range m.vcpus {
		if _, ok := v.gen.(*workload.Generator); !ok {
			return false
		}
	}
	return true
}

// resolveMode maps the config's engine selection to the sharded engine's
// mode. "windowed" and "adaptive" pin the conservative engines;
// "timewarp" requests the optimistic engine and falls back to the
// historical dispatch when the configuration is outside checkpoint
// coverage (the conservative result is identical by construction, so the
// fallback is silent); "auto" picks the optimistic engine exactly where
// the planner's horizon estimate predicts it wins — multiple shards whose
// cross-domain lookahead sits at the mesh floor while cross-shard filter
// traffic (syncMode) forces the conservative engines into lockstep. The
// default ("") preserves the historical dispatch unchanged.
func (m *Machine) resolveMode() sim.Mode {
	if m.sharded == nil {
		return sim.ModeAuto
	}
	switch m.cfg.Mode {
	case "windowed":
		return sim.ModeWindowed
	case "adaptive":
		return sim.ModeAdaptive
	case "timewarp":
		if m.snapshotSupported() {
			return sim.ModeTimewarp
		}
		return sim.ModeAuto
	case "auto":
		if m.snapshotSupported() && m.sharded.Shards() >= 2 && m.syncMode {
			min := m.crossHor[0]
			for _, h := range m.crossHor {
				if h < min {
					min = h
				}
			}
			if min <= 4*m.Net.MinCrossLatency() {
				return sim.ModeTimewarp
			}
		}
		return sim.ModeAuto
	default:
		return sim.ModeAuto
	}
}
