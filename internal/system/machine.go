package system

import (
	"fmt"

	"vsnoop/internal/cache"
	"vsnoop/internal/check"
	"vsnoop/internal/core"
	"vsnoop/internal/directory"
	"vsnoop/internal/fault"
	"vsnoop/internal/hv"
	"vsnoop/internal/mem"
	"vsnoop/internal/memctrl"
	"vsnoop/internal/mesh"
	"vsnoop/internal/regionscout"
	"vsnoop/internal/sim"
	"vsnoop/internal/tlb"
	"vsnoop/internal/token"
	"vsnoop/internal/workload"
)

// coreNode is one core's hardware: private L1/L2 and the coherence
// controller, plus the queue of vCPUs waiting for the controller.
type coreNode struct {
	idx  int
	node mesh.NodeID
	// dom is the snoop-domain partition owning this core; it is fixed at
	// setup.
	dom    *domain
	l1, l2 *cache.Cache
	tlb    *tlb.TLB
	ctrl   *token.CacheCtrl     // token-protocol controller (nil in directory mode)
	dctrl  *directory.CacheCtrl // directory-protocol controller (nil in token mode)
	// waitq holds vCPUs blocked on the busy controller in arrival order
	// (relocation hand-over); drainq is the swap buffer the drain event
	// iterates, so draining allocates nothing in steady state.
	waitq  []*vcpu
	drainq []*vcpu
}

// busy reports whether the core's coherence controller has an outstanding
// transaction, regardless of protocol.
func (cn *coreNode) busy() bool {
	if cn.dctrl != nil {
		return cn.dctrl.Busy()
	}
	return cn.ctrl.Busy()
}

// start launches a coherence transaction on whichever protocol is wired;
// fn(arg, 0) fires on completion.
func (cn *coreNode) start(addr mem.BlockAddr, vm mem.VMID, pt mem.PageType, write bool, fn sim.HandlerFn, arg interface{}) {
	if cn.dctrl != nil {
		cn.dctrl.Start(addr, vm, write, fn, arg)
		return
	}
	cn.ctrl.Start(addr, vm, pt, write, fn, arg)
}

// RefSource produces a vCPU's reference stream. workload.Generator is the
// synthetic default; trace.Replayer replays a recorded stream.
type RefSource interface {
	Next() workload.Ref
}

// vcpu is one virtual CPU: its reference source, progress, and identity.
type vcpu struct {
	id hv.VCPU
	// dom is the snoop-domain partition this vCPU executes in; it is only
	// rewritten by the depart handler, inside the old owning domain.
	dom      *domain
	core     int // physical core currently hosting this vCPU
	gen      RefSource
	left     int // references remaining
	executed int // references issued so far (for warmup accounting)
	// pending holds the reference being replayed across a delayed resumption
	// (TLB walk, COW trap) or while parked on a busy controller. A vCPU's
	// stream is strictly sequential, so at most one is ever outstanding.
	pending workload.Ref

	// Cross-domain migration state (syncMode only). inTxn marks an open
	// coherence transaction: a depart arriving mid-transaction is deferred
	// (defFrom/defTo) until the completion callback. parked marks membership
	// in a core's waitq; done marks a finished stream (migrating a retired
	// vCPU must not disturb live accounting).
	inTxn    bool
	deferred bool
	parked   bool
	done     bool
	defFrom  int
	defTo    int

	// The open coherence transaction's inputs to missDone, set by execute
	// when it starts one: start cycle, block, tag VM, write flag, and the
	// core and domain it runs on (the vCPU may be relocated before it
	// completes).
	txnStart sim.Cycle
	txnAddr  mem.BlockAddr
	txnVM    mem.VMID
	txnWrite bool
	txnCore  *coreNode
	txnDom   *domain

	// vix is this vCPU's index in m.vcpus — the column of the own/fwd
	// ownership tables. It is fixed at setup.
	vix int
}

// domain is one snoop-domain partition of the machine: the cores of one
// mesh quadrant (Config.domainAt), the memory controllers at its corners,
// and the run-time statistics its events record. A machine without
// quadrant placement has exactly one domain covering the whole machine,
// with no cross-domain traffic and zero cross-domain horizons.
type domain struct {
	idx   int32 // fixed at setup
	st    *Stats
	cores []int // core indexes owned by this domain
	mcs   []int // token memory-controller indexes owned by this domain
	homes []int // directory home indexes owned by this domain

	nvcpus   int
	live     int  // vCPUs still running
	warmLeft int  // vCPUs still inside the warmup phase
	warmed   bool // statistics snapshot taken

	// probes is the freelist of holder-classification probes this domain
	// originates.
	probes []*holderProbe
}

// Machine is a fully wired simulated system.
type Machine struct {
	cfg Config

	Eng    *sim.Engine
	Net    *mesh.Network
	MM     *mem.Manager
	Mapper *hv.Mapper
	Filter *core.Filter

	// cores and vcpus are ownership tables keyed by core/vCPU index: the
	// element's owner is its dom field (coreDom[i] for cores), so any index
	// not derived from the executing handler's own inputs reaches foreign
	// state.
	cores []*coreNode
	rs    *regionscout.Filter
	mcs   []*memctrl.Ctrl
	homes []*directory.Home
	vcpus []*vcpu

	// Injector applies the configured fault plan (nil without one).
	Injector *fault.Injector
	// Checker evaluates protocol invariants online (nil unless Checks or a
	// fault plan is configured).
	Checker *check.Checker

	dom0 mem.VMID

	Stats Stats

	// coreDom maps each core to its snoop domain (Config.domainAt);
	// crossHor holds the per-domain cross-domain horizons the mesh derived
	// from the cut: the delay of every cross-domain protocol event the
	// machine schedules itself.
	coreDom  []int32
	crossHor []sim.Cycle

	// holders is the presence bitset every L2 shares (member = core index);
	// the snoop parking table reads a multicast's holder lane from it.
	holders *cache.Holders
	// parkTab is the snoop parking table (nil when parking is off).
	parkTab *token.ParkTable

	// doms holds the snoop-domain partitions.
	doms []*domain

	// syncMode marks a run whose filter state mutates at runtime (vCPU
	// migration, scheduled fault events): the machine builds one filter
	// replica per domain and keeps them coherent with ordered cross-domain
	// deltas. running distinguishes runtime relocations (cross-domain
	// protocol) from setup placement.
	syncMode bool
	running  bool
	// replicas holds the per-domain filter replicas in syncMode (nil
	// otherwise; m.Filter then is the single shared filter). replicas[0]
	// doubles as m.Filter so external accessors keep working.
	replicas []*core.Filter

	// cowTargets holds the setup-preallocated private host page a COW
	// trap resolves to (content-sharing runs only), making the target a
	// pure function of the config. cow is the machine's translation
	// overlay of trapped pages, keyed by mem.CowKey(vm, page): the global
	// page tables stay immutable at runtime, and a VM traps once per page
	// wherever its vCPUs run.
	cowTargets mem.CowTargets
	cow        map[uint64]mem.Translation
	// friendOf/hasFriend are the static post-merge friend tables, indexed
	// by VM: the filter's friend-VM routing and holder classification both
	// read them.
	friendOf  []mem.VMID
	hasFriend []bool

	// inflight marks vCPUs with an open cross-domain migration (indexed by
	// vcpuIndex); the shuffler and storms skip them so at most one move per
	// vCPU is ever in the air. retired counts finished vCPUs observed by
	// dom0 so the recurring shuffle tick knows when to stop rescheduling.
	inflight   []bool
	retired    int
	shufRng    *sim.Rand
	shufPeriod sim.Cycle

	// own/fwd are the flat per-domain vCPU location tables: own[d*nv+vix]
	// reports whether domain d currently owns vCPU vix, and fwd[d*nv+vix]
	// is where d last sent it. Row d is written exclusively by domain d's
	// handlers — depart clears own and points fwd at the destination,
	// arrive sets both — and the event-chase path hops along fwd one
	// domain at a time, one cross-domain horizon per hop.
	own []bool
	fwd []int32
	nv  int

	// stepFn/resumeFn/missDoneFn are the prebound event handlers for the
	// hottest schedulers (per-reference think-time step, delayed reference
	// resumption, coherence-miss completion); the vCPU rides in the event's
	// arg, so none allocates. The rest are the prebound handlers of the
	// cross-domain protocols.
	stepFn        sim.HandlerFn
	resumeFn      sim.HandlerFn
	missDoneFn    sim.HandlerFn
	drainFn       sim.HandlerFn
	departFn      sim.HandlerFn
	arriveFn      sim.HandlerFn
	ackFn         sim.HandlerFn
	retireFn      sim.HandlerFn
	tickFn        sim.HandlerFn
	deltaFn       sim.HandlerFn
	classifyReqFn sim.HandlerFn
	classifyRepFn sim.HandlerFn
}

// New builds a machine from cfg; it returns an error on invalid
// configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}

	// Domain topology: the quadrant cut under quadrant placement, one
	// domain otherwise (Config.domainAt). Every event carries its domain,
	// and same-cycle ties break by (scheduling domain, per-domain order).
	m.Eng = sim.NewEngine()
	m.Eng.SetDomains(cfg.domains())
	for d := 0; d < cfg.domains(); d++ {
		m.doms = append(m.doms, &domain{idx: int32(d), st: &Stats{cfg: cfg.sansControl()}})
	}
	m.syncMode = cfg.needSync()

	// stepFn/resumeFn carry the scheduled domain index in u: when a migrated
	// vCPU's event fires in a domain that no longer owns it, the handler
	// chases it along the fwd table, one cross-domain horizon per hop. The
	// ownership test reads only row u of the own table — state the
	// executing domain itself writes.
	m.stepFn = func(arg interface{}, u uint64) {
		v := arg.(*vcpu)
		if !m.own[int(u)*m.nv+v.vix] {
			m.chase(v, u, m.stepFn)
			return
		}
		m.step(v)
	}
	m.resumeFn = func(arg interface{}, u uint64) {
		v := arg.(*vcpu)
		if !m.own[int(u)*m.nv+v.vix] {
			m.chase(v, u, m.resumeFn)
			return
		}
		m.issueRef(v, v.pending)
	}
	m.missDoneFn = func(arg interface{}, _ uint64) { m.missDone(arg.(*vcpu)) }
	m.drainFn = func(arg interface{}, _ uint64) { m.drainWaiters(arg.(*coreNode)) }
	m.departFn = m.handleDepart
	m.arriveFn = m.handleArrive
	m.ackFn = func(arg interface{}, _ uint64) { m.inflight[m.vcpuIndex(arg.(*vcpu).id)] = false }
	m.retireFn = func(_ interface{}, _ uint64) { m.retired++ }
	m.tickFn = func(_ interface{}, _ uint64) { m.shuffleTick() }
	m.deltaFn = applyDelta
	m.classifyReqFn = m.handleClassifyReq
	m.classifyRepFn = m.handleClassifyRep
	m.Net = mesh.New(m.Eng, cfg.Mesh)
	m.MM = mem.NewManager(cfg.HvPages)
	m.Mapper = hv.NewMapper(cfg.Cores)
	m.dom0 = mem.VMID(0xFFFD)
	m.Stats.init(cfg)

	// Core endpoints, row-major on the mesh. Core i is endpoint i: the
	// filters, the token controllers and the park table name cores by
	// their bits in destination words, and the mesh sends to those bits.
	coreNodes := make([]mesh.NodeID, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		x, y := i%cfg.Mesh.Width, i/cfg.Mesh.Width
		coreNodes[i] = m.Net.Attach(x, y, nil)
		if coreNodes[i] != mesh.NodeID(i) {
			panic("system: core endpoints out of core order")
		}
	}
	// Memory controllers at the corners, block-interleaved.
	cornerXY := [4][2]int{{0, 0}, {cfg.Mesh.Width - 1, 0}, {0, cfg.Mesh.Height - 1}, {cfg.Mesh.Width - 1, cfg.Mesh.Height - 1}}
	mcNodes := make([]mesh.NodeID, cfg.MCs)
	for i := 0; i < cfg.MCs; i++ {
		mcNodes[i] = m.Net.Attach(cornerXY[i][0], cornerXY[i][1], nil)
	}

	// Domain ownership follows the cut: each core and each memory
	// controller belongs to the domain of its router. Then hand the network
	// the partition so intra-domain traffic keeps full contention while
	// cross-domain messages are delivered at zero-load latency into the
	// destination domain's queue.
	m.coreDom = make([]int32, cfg.Cores)
	nodeDom := make([]int32, cfg.Cores+cfg.MCs)
	for i := 0; i < cfg.Cores; i++ {
		d := cfg.domainAt(i%cfg.Mesh.Width, i/cfg.Mesh.Width)
		m.coreDom[i] = d
		nodeDom[coreNodes[i]] = d
		m.doms[d].cores = append(m.doms[d].cores, i)
	}
	for i := 0; i < cfg.MCs; i++ {
		d := cfg.domainAt(cornerXY[i][0], cornerXY[i][1])
		nodeDom[mcNodes[i]] = d
		if cfg.Directory {
			m.doms[d].homes = append(m.doms[d].homes, i)
		} else {
			m.doms[d].mcs = append(m.doms[d].mcs, i)
		}
	}
	m.Net.Partition(nodeDom, len(m.doms))
	m.crossHor = m.Net.CrossHorizons()

	// Caches + filter. In syncMode the filter's register file is replicated
	// per domain: each replica owns the residence callbacks of its domain's
	// caches, and propagates its authoritative map removals to the other
	// replicas as ordered cross-domain deltas.
	// Outside syncMode every VM's state is written from one domain only, so
	// the single shared filter stays safe.
	l2s := make([]*cache.Cache, cfg.Cores)
	for i := range l2s {
		l2s[i] = cache.New(cfg.L2)
	}
	// Every L2 shares one holder bitset; a cache's member is its core.
	m.holders = cache.NewHolders(cfg.Cores)
	for i, l2 := range l2s {
		l2.ShareHolders(m.holders, i)
	}
	if m.syncMode {
		m.replicas = make([]*core.Filter, len(m.doms))
		for d := range m.doms {
			m.replicas[d] = core.NewFilterScoped(m.Eng, cfg.Filter, cfg.Cores, l2s, m.doms[d].cores)
		}
		m.Filter = m.replicas[0]
		for d := range m.replicas {
			dom := m.doms[d]
			m.replicas[d].OnMapRemove = func(vm mem.VMID, coreIdx int) {
				m.broadcastDelta(dom, opMapClear, vm, coreIdx)
			}
		}
	} else {
		m.Filter = core.NewFilter(m.Eng, cfg.Filter, cfg.Cores, l2s)
	}

	// Cache-side controllers.
	dirParams := directory.DefaultParams()
	dirParams.CtrlBytes, dirParams.DataBytes = cfg.P.CtrlBytes, cfg.P.DataBytes
	dirParams.L2Latency, dirParams.FillLatency = cfg.P.L2Latency, cfg.P.FillLatency
	dirParams.DRAMLatency = cfg.P.DRAMLatency
	for i := 0; i < cfg.Cores; i++ {
		cn := &coreNode{idx: i, node: coreNodes[i], dom: m.domOfCore(i), l2: l2s[i], l1: cache.New(cfg.L1), tlb: tlb.New(cfg.TLB)}
		if cfg.Directory {
			cn.dctrl = &directory.CacheCtrl{
				Eng: m.Eng, Net: m.Net, Node: coreNodes[i], Core: i,
				L2: cn.l2, P: dirParams, Tokens: cfg.P.TotalTokens,
				Homes: mcNodes,
			}
			cn.dctrl.Init()
			m.Net.SetHandler(coreNodes[i], cn.dctrl.Handle)
		} else {
			cn.ctrl = &token.CacheCtrl{
				Eng: m.Eng, Net: m.Net, Node: coreNodes[i], Core: i,
				L2: cn.l2, P: cfg.P, Router: m.filterOf(cn.dom),
				Cores: cfg.Cores, MCNodes: mcNodes,
				Rng: sim.NewRandTagged(cfg.Seed, fmt.Sprintf("ctrl%d", i)),
			}
			cn.ctrl.Init()
			// Provider designation stays domain-local: the fill scan reads
			// only this domain's caches.
			dom := cn.dom
			cn.ctrl.OnFill = func(b *cache.Block, t *token.Txn) { m.onFillDom(dom, b, t) }
			m.Net.SetHandler(coreNodes[i], cn.ctrl.Handle)
		}
		// L1 inclusion: L2 drops force L1 drops.
		l1 := cn.l1
		cn.l2.OnDrop = func(a mem.BlockAddr) {
			if b := l1.Lookup(a); b != nil {
				l1.Invalidate(a, b)
			}
		}
		m.cores = append(m.cores, cn)
	}

	// Optional RegionScout router (related-work comparison). Wired after
	// the L1-inclusion hooks so its presence tracking chains with them.
	if cfg.UseRegionScout {
		m.rs = regionscout.New(regionscout.DefaultConfig(), cfg.Cores, l2s)
		for _, cn := range m.cores {
			cn.ctrl.Router = m.rs
		}
	}

	// Memory-side controllers: directory homes or token homes.
	if cfg.Directory {
		for i := 0; i < cfg.MCs; i++ {
			h := &directory.Home{Eng: m.Eng, Net: m.Net, Node: mcNodes[i], P: dirParams}
			h.Init()
			m.Net.SetHandler(mcNodes[i], h.Handle)
			m.homes = append(m.homes, h)
		}
	} else {
		for i := 0; i < cfg.MCs; i++ {
			// The provider oracle scans only the MC's own domain's caches:
			// a missed remote provider is a safe false negative (one extra
			// DRAM read). The controller homes the blocks the cache
			// controllers' HomeMC interleaving sends it: addr % MCs == i.
			mc := &memctrl.Ctrl{Eng: m.Eng, Net: m.Net, Node: mcNodes[i], P: cfg.P,
				Cores: cfg.Cores, Oracle: domOracle{m: m, d: m.doms[nodeDom[mcNodes[i]]]},
				Interleave: uint64(cfg.MCs), Residue: uint64(i)}
			mc.Init()
			m.Net.SetHandler(mcNodes[i], mc.Handle)
			m.mcs = append(m.mcs, mc)
		}
	}

	// Hypervisor relocation hook keeps the filter's maps (and the vCPU's
	// cached core index) current; on an untagged TLB a vCPU switch also
	// flushes the new core's TLB. At runtime in syncMode the move instead
	// becomes an ordered cross-domain transaction (beginMove): depart in the
	// old domain, arrive in the new one, registration deltas everywhere.
	m.Mapper.OnRelocate = func(id hv.VCPU, from, to int) {
		if m.running && m.syncMode {
			m.beginMove(id, from, to)
			return
		}
		if v := m.vcpuAt(id); v != nil {
			v.core = to
			v.dom = m.domOfCore(to)
		}
		if m.replicas != nil {
			if from >= 0 {
				ownFrom := m.coreDom[from]
				m.replicas[ownFrom].RelocateDepart(id.VM, from)
				for d, rep := range m.replicas {
					if int32(d) != ownFrom {
						rep.ApplyRunClear(id.VM, from)
					}
				}
			}
			ownTo := m.coreDom[to]
			m.replicas[ownTo].RelocateArrive(id.VM, to)
			for d, rep := range m.replicas {
				if int32(d) != ownTo {
					rep.ApplyRunSet(id.VM, to)
					rep.ApplyMapSet(id.VM, to)
				}
			}
		} else {
			m.Filter.HandleRelocate(id.VM, from, to)
		}
		if !cfg.TLB.Tagged {
			m.cores[to].tlb.FlushAll()
		}
	}
	// Selective-flush support (PolicyCounterFlush): the filter asks the
	// departed core's controller to write the VM's blocks back. Each replica
	// only ever flushes cores its own domain owns.
	flushVM := func(coreIdx int, vm mem.VMID) {
		if cn := m.cores[coreIdx]; cn.ctrl != nil {
			cn.ctrl.FlushVM(vm)
		}
	}
	for _, f := range m.filters() {
		f.OnFlushVM = flushVM
	}

	// Fault injection: mesh hook, degradation, underflow recovery, and
	// scheduled events. Token-protocol only (Validate enforces it).
	if cfg.Fault.Active() && !cfg.Directory {
		m.Injector = fault.NewInjector(cfg.Fault, cfg.Seed, cfg.Cores+cfg.MCs)
		m.Injector.Attach(m.Net, mcNodes)
		for _, f := range m.filters() {
			f.DegradationEnabled = true
		}
		for _, cn := range m.cores {
			f := m.filterOf(cn.dom)
			cn.ctrl.Esc = f
			cn.l2.OnResidenceUnderflow = f.NoteUnderflow
		}
		// Scheduled events (which imply syncMode) run in domain 0, the
		// single writer for the injector's event counters.
		m.scheduleFaultEvents()
	}

	// Invariant checking: token-custody ledger on every controller plus
	// the periodic checker. Observation-only, so results are identical
	// with or without it; a fault plan always implies it.
	if (cfg.Checks || cfg.Fault.Active()) && !cfg.Directory {
		ctrls := make([]*token.CacheCtrl, len(m.cores))
		ageLimit := cfg.TxnAgeLimit
		if ageLimit == 0 {
			ageLimit = 500_000
		}
		// One token-custody ledger for the machine: every controller
		// reports to it, so a block's entry leaves the ledger as soon as
		// its last token in flight lands. The checker sweeps between
		// events (RunChecked), so the engine clock is its clock.
		led := check.NewLedger()
		for i, cn := range m.cores {
			cn.ctrl.Obs = led
			ctrls[i] = cn.ctrl
		}
		for _, mc := range m.mcs {
			mc.Obs = led
		}
		m.Checker = &check.Checker{Now: m.Eng.Now}
		cen := check.NewCensus(l2s, m.mcs, led)
		m.Checker.Add(check.TokenConservation(cfg.P.TotalTokens, cen))
		m.Checker.Add(check.SingleWriter(cfg.P.TotalTokens, cen))
		m.Checker.Add(check.TxnCompletion(m.Eng.Now, ctrls, ageLimit))
	}

	m.parkSnoops(false)
	m.setupVMs()

	// Post-setup wiring. Pages are allocated up front, not at first touch;
	// COW targets are preallocated so a trap never mutates global page
	// tables; (under faults) each VM's degradation machinery is confined to
	// its owning domain's caches. Every vCPU then joins the domain its core
	// was cut into.
	m.MM.PreallocateAll()
	if cfg.ContentSharing {
		m.cowTargets = m.MM.PrepareCowTargets()
		m.cow = make(map[uint64]mem.Translation)
	}
	if m.Injector != nil {
		if m.replicas != nil {
			for d, rep := range m.replicas {
				for q := 0; q < cfg.VMs; q++ {
					rep.SetVMScope(mem.VMID(q), m.doms[d].cores)
				}
			}
		} else {
			for q := 0; q < cfg.VMs; q++ {
				// Without sync the VM never leaves its home domain (the
				// cut never splits a VM), so scope its degradation
				// machinery to that domain alone.
				hd := m.domOfCore(m.Mapper.CoreOf(hv.VCPU{VM: mem.VMID(q), Idx: 0}))
				m.Filter.SetVMScope(mem.VMID(q), hd.cores)
			}
		}
	}
	m.nv = len(m.vcpus)
	m.own = make([]bool, len(m.doms)*m.nv)
	m.fwd = make([]int32, len(m.doms)*m.nv)
	for i, v := range m.vcpus {
		v.vix = i
		v.core = m.Mapper.CoreOf(v.id)
		v.dom = m.domOfCore(v.core)
		v.dom.nvcpus++
	}
	m.initLocationTables()
	return m, nil
}

// parkSnoops builds the machine's snoop parking table over the token
// controllers and the shared holder bitset (token.NewParkTable; shadow
// selects its checking mode; core i is mesh endpoint i, as New attaches
// them), so a snoop to an L2 holding no copy of the block never enters the
// event queue, and turns on retry-timeout cancellation
// (token.CacheCtrl.CancelTimeouts), so a completed transaction's timeout
// never runs either. Both stay off under a fault plan (drops and
// duplicates need real events) and under the directory protocol, and
// parking also on machines of more than token.MaxParkCores cores (the
// table's masks are one word).
func (m *Machine) parkSnoops(shadow bool) {
	if m.Injector != nil || m.cfg.Directory {
		return
	}
	if len(m.cores) <= token.MaxParkCores {
		ctrls := make([]*token.CacheCtrl, len(m.cores))
		for i, cn := range m.cores {
			ctrls[i] = cn.ctrl
		}
		m.parkTab = token.NewParkTable(ctrls, m.holders, shadow)
	}
	for _, cn := range m.cores {
		cn.ctrl.CancelTimeouts(shadow)
	}
}

// initLocationTables (re)derives the per-domain vCPU counts and the own/fwd
// location rows from the mapper's current placement. Called at construction
// and again when a run starts, so placement changes between the two (tests
// relocating by hand) cannot leave the tables stale.
func (m *Machine) initLocationTables() {
	for _, d := range m.doms {
		d.nvcpus = 0
	}
	for i, v := range m.vcpus {
		v.dom = m.domOfCore(v.core)
		v.dom.nvcpus++
		for d := range m.doms {
			m.own[d*m.nv+i] = int32(d) == v.dom.idx
			m.fwd[d*m.nv+i] = v.dom.idx
		}
	}
}

// domOfCore returns the domain owning core i.
func (m *Machine) domOfCore(i int) *domain {
	return m.doms[m.coreDom[i]]
}

// ReplaceSources swaps every vCPU's reference source (e.g. with trace
// replayers). sources must have one entry per vCPU, ordered VM-major.
// Call before Run.
func (m *Machine) ReplaceSources(sources []RefSource) error {
	if len(sources) != len(m.vcpus) {
		return fmt.Errorf("system: %d sources for %d vCPUs", len(sources), len(m.vcpus))
	}
	for i, v := range m.vcpus {
		v.gen = sources[i]
	}
	return nil
}

// setupVMs builds address spaces, content sharing, generators, and the
// initial quadrant placement of vCPUs.
func (m *Machine) setupVMs() {
	cfg := m.cfg
	// dom0's working pages live in the shared hypervisor region already;
	// no separate space needed.
	for vm := 0; vm < cfg.VMs; vm++ {
		prof := workload.MustGet(cfg.workloadFor(vm))
		if cfg.NoHypervisor {
			prof.XenFrac, prof.Dom0Frac = 0, 0
		}
		m.MM.NewSpace(mem.VMID(vm), prof.GuestPages(cfg.VCPUsPerVM))
		layout := workload.NewLayout(prof, cfg.VCPUsPerVM)
		if cfg.ContentSharing {
			lo, hi := layout.ContentRange()
			// Content IDs derive from the profile name so homogeneous VMs
			// share all content pages and heterogeneous VMs share none.
			base := mem.ContentID(hashName(prof.Name)) << 20
			for gp := lo; gp < hi; gp++ {
				m.MM.SetContent(mem.VMID(vm), mem.GuestPage(gp), base|mem.ContentID(gp+1))
			}
		}
		for t := 0; t < cfg.VCPUsPerVM; t++ {
			m.vcpus = append(m.vcpus, &vcpu{
				id:   hv.VCPU{VM: mem.VMID(vm), Idx: t},
				gen:  workload.NewGenerator(prof, cfg.VCPUsPerVM, t, cfg.Seed+uint64(vm)*1000),
				left: cfg.RefsPerVCPU,
			})
		}
	}
	if cfg.ContentSharing {
		m.MM.MergeIdentical()
		m.initFriendTable()
		for vm, friend := range m.friendOf {
			if m.hasFriend[vm] {
				for _, f := range m.filters() {
					f.SetFriend(mem.VMID(vm), friend)
				}
			}
		}
	}
	m.placeVMs()
}

// placeVMs pins each VM's vCPUs onto a compact region of the mesh
// (quadrants for the default 4 VMs x 4 vCPUs on 4x4), the ideal placement
// of Section V.B.
func (m *Machine) placeVMs() {
	cfg := m.cfg
	if cfg.quadrantPlacement() {
		for _, v := range m.vcpus {
			q := int(v.id.VM)
			x0, y0 := 2*(q%2), 2*(q/2)
			x, y := x0+v.id.Idx%2, y0+v.id.Idx/2
			m.Mapper.Place(v.id, y*4+x)
		}
		return
	}
	c := 0
	for _, v := range m.vcpus {
		m.Mapper.Place(v.id, c)
		c++
	}
}

// hashName gives a stable small hash for content-ID namespacing.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h & 0xFFF
}

// Run executes the configured reference streams to completion and returns
// the collected statistics; it panics on a runtime failure (watchdog trip,
// step-budget exhaustion, drained queue). Use RunChecked to get the error.
func (m *Machine) Run() *Stats {
	st, err := m.RunChecked()
	if err != nil {
		panic(err)
	}
	return st
}

// RunChecked executes the run under the no-forward-progress watchdog and
// (when configured) the step budget and invariant checker, in one
// Engine.Drain. The returned Stats are valid even on
// error — they describe the run up to the failure, which is exactly what a
// livelock diagnosis needs.
func (m *Machine) RunChecked() (*Stats, error) {
	cfg := m.cfg
	limit := cfg.ProgressLimit
	if limit == 0 {
		limit = 10_000_000
	}
	m.Eng.SetProgressLimit(limit)
	m.Eng.SetCancel(cfg.Cancel)
	m.initLocationTables()
	m.running = true
	if m.syncMode {
		m.inflight = make([]bool, len(m.vcpus))
		if cfg.MigrationPeriodMs > 0 {
			// The machine owns the shuffle tick: it runs in domain 0
			// (single writer for the mapper and the RNG) and every move it
			// triggers becomes a cross-domain transaction.
			m.shufRng = sim.NewRandTagged(cfg.Seed, "shuffle")
			m.shufPeriod = sim.Cycle(cfg.MigrationPeriodMs * float64(cfg.CyclesPerMs))
			m.Eng.SetCurDomain(0)
			m.Eng.ScheduleFn(m.shufPeriod, m.tickFn, nil, 0)
		}
	}
	for _, d := range m.doms {
		d.live = d.nvcpus
		if cfg.WarmupRefs > 0 {
			d.warmLeft = d.nvcpus
		} else {
			d.warmed = true
		}
	}
	for i, v := range m.vcpus {
		m.Eng.SetCurDomain(v.dom.idx)
		m.Eng.ScheduleFn(sim.Cycle(i), m.stepFn, v, uint64(v.dom.idx))
	}
	// The checker sweeps before the first event at or after each multiple
	// of its period while any vCPU runs. Sweeping stops once every vCPU
	// has finished, so events that only drain the run (retry timeouts, with
	// cancellation on or off) add no sweep.
	var period sim.Cycle
	var sweep func()
	if m.Checker != nil {
		period = cfg.CheckPeriod
		if period <= 0 {
			period = 5000
		}
		sweep = func() {
			if m.liveVCPUs() > 0 {
				m.Checker.CheckNow()
			}
		}
	}
	err := m.Eng.Drain(cfg.MaxSteps, period, sweep)
	if err != nil {
		// The run stopped early: parked snoops and cancelled timeouts not
		// yet due would never have fired, so their counts come off. After a
		// full drain all of them fired.
		for _, cn := range m.cores {
			if cn.ctrl != nil {
				cn.ctrl.DropParked()
				cn.ctrl.DropCancelled()
			}
		}
	}
	if err == nil {
		if live := m.liveVCPUs(); live > 0 {
			err = fmt.Errorf("system: event queue drained with %d unfinished vCPUs", live)
		}
	}
	if err == nil && m.Checker != nil {
		m.Checker.CheckNow() // final sweep at quiescence
	}
	m.finalizeStats()
	return &m.Stats, err
}

// liveVCPUs returns how many vCPUs have not finished their streams.
func (m *Machine) liveVCPUs() int {
	live := 0
	for _, d := range m.doms {
		live += d.live
	}
	return live
}

// step issues the next reference of v on its current core.
func (m *Machine) step(v *vcpu) {
	d := v.dom
	m.Eng.Progress() // a vCPU advancing its stream is forward progress
	if v.left == 0 {
		d.live--
		if d.st.ExecCycles < uint64(m.Eng.Now()) {
			d.st.ExecCycles = uint64(m.Eng.Now())
		}
		v.done = true
		if m.shufPeriod > 0 {
			// Tell dom0 (which owns the recurring shuffle tick) that one
			// more stream retired, so the tick can stop rescheduling once
			// every vCPU is done and the run can drain.
			m.Eng.ScheduleFnAtDom(m.Eng.Now()+m.crossHor[d.idx], 0, m.retireFn, nil, 0)
		}
		return
	}
	v.left--
	v.executed++
	if !d.warmed && v.executed == m.cfg.WarmupRefs {
		d.warmLeft--
		if d.warmLeft == 0 {
			m.takeSnapshot(d)
		}
	}
	m.issueRef(v, v.gen.Next())
}

// issueRef runs one reference on the vCPU's current core, parking it if
// the core's coherence controller is still busy with the previous
// occupant's miss (relocation hand-over). Delayed resumptions (TLB walks,
// copy-on-write traps) re-enter here so occupancy is always re-checked —
// the vCPU may have been relocated, or another vCPU may have claimed the
// controller, while the delay elapsed.
func (m *Machine) issueRef(v *vcpu, ref workload.Ref) {
	cn := m.cores[v.core]
	if cn.busy() {
		v.pending = ref
		v.parked = true
		cn.waitq = append(cn.waitq, v)
		return
	}
	m.execute(v, cn, ref)
}

// drainWaiters re-issues every vCPU parked on cn, in arrival order. The
// first one claims the controller; the rest re-park. One drain event per
// completed transaction with waiters.
func (m *Machine) drainWaiters(cn *coreNode) {
	q := cn.waitq
	cn.waitq = cn.drainq[:0]
	cn.drainq = q
	for _, v := range q {
		v.parked = false
		m.issueRef(v, v.pending)
	}
}

// execute performs one memory reference on core cn.
func (m *Machine) execute(v *vcpu, cn *coreNode, ref workload.Ref) {
	cfg := &m.cfg
	d := v.dom
	st := d.st

	// Translate: context decides the address space and attribution.
	var (
		host  mem.HostPage
		ptype mem.PageType
		tagVM mem.VMID
	)
	var walk sim.Cycle
	switch ref.Ctx {
	case workload.CtxGuest:
		tr, hit := cn.tlb.Lookup(v.id.VM, ref.Page)
		if !hit {
			tr = m.translate(v.id.VM, ref.Page)
			cn.tlb.Insert(v.id.VM, ref.Page, tr)
			walk = sim.Cycle(cfg.TLB.WalkLatency)
		}
		if ref.Write && tr.Type == mem.PageROShared {
			// Store to a content-shared page: hypervisor COW, then a TLB
			// shootdown on every core, then retry the access against the
			// fresh private page. The trap lands in the machine's overlay
			// (the target host page was preallocated at setup), so the
			// VM's other vCPUs find the private page wherever they run.
			target, _ := m.cowTargets.Target(v.id.VM, ref.Page)
			m.cow[mem.CowKey(v.id.VM, ref.Page)] = mem.Translation{Host: target, Type: mem.PagePrivate}
			st.Cows++
			for _, c := range m.cores {
				c.tlb.Shootdown(v.id.VM, ref.Page)
			}
			v.pending = ref
			m.Eng.ScheduleFn(cfg.CowLatency, m.resumeFn, v, uint64(d.idx))
			return
		}
		host, ptype, tagVM = tr.Host, tr.Type, v.id.VM
	case workload.CtxXen:
		host, ptype, tagVM = m.MM.HypervisorPage(ref.Hv), mem.PageRWShared, mem.Hypervisor
	case workload.CtxDom0:
		host, ptype, tagVM = m.MM.HypervisorPage(ref.Hv), mem.PageRWShared, m.dom0
	}
	addr := mem.BlockInPage(host, ref.Block)

	if walk > 0 {
		// Pay the page walk, then re-run the access with a warm TLB
		// (re-entering through the occupancy check: the core may have been
		// claimed, or the vCPU relocated, during the walk).
		v.pending = ref
		m.Eng.ScheduleFn(walk, m.resumeFn, v, uint64(d.idx))
		return
	}

	st.recordL1Access(v.id.VM, ref.Ctx, ptype)

	// L1: a read filter (write-through, no write-allocate). An L1 hit
	// also refreshes the block's L2 recency so the inclusive L2 does not
	// mistake L1-resident hot data for dead and evict it under streaming
	// fills (hit-promotion hint).
	if !ref.Write {
		if b := cn.l1.Lookup(addr); b != nil {
			cn.l1.Touch(b)
			if lb := cn.l2.Lookup(addr); lb != nil {
				cn.l2.Touch(lb)
			}
			m.finish(v, sim.Cycle(cfg.L1.HitLatency))
			return
		}
	}

	// L2.
	st.L2Accesses++
	b := cn.l2.Lookup(addr)
	if b != nil && b.Tokens >= 1 && (!ref.Write || int(b.Tokens) == cfg.P.TotalTokens) {
		// Hit (reads need a token; writes need all — silent E->M upgrade).
		if ref.Write {
			b.Dirty = true
		}
		cn.l2.Touch(b)
		m.l1Fill(cn, addr, tagVM, ref.Write)
		m.finish(v, sim.Cycle(cfg.L2.HitLatency))
		return
	}

	// L2 miss or upgrade: coherence transaction.
	st.recordL2Miss(v.id.VM, ref.Ctx, ptype)
	if ptype == mem.PageROShared {
		m.probeHolders(d, addr, v.id.VM)
	}
	v.inTxn = true
	v.txnStart, v.txnAddr, v.txnVM, v.txnWrite = m.Eng.Now(), addr, tagVM, ref.Write
	v.txnCore, v.txnDom = cn, d
	cn.start(addr, tagVM, ptype, ref.Write, m.missDoneFn, v)
}

// missDone completes v's coherence transaction (the missDoneFn handler):
// record the miss latency, fill the L1, release vCPUs parked on the core,
// and continue the stream.
func (m *Machine) missDone(v *vcpu) {
	cn, d := v.txnCore, v.txnDom
	v.inTxn = false
	d.st.MissLatency.Observe(float64(m.Eng.Now() - v.txnStart))
	m.l1Fill(cn, v.txnAddr, v.txnVM, v.txnWrite)
	// Free waiting relocated vCPUs, then continue this stream.
	if len(cn.waitq) > 0 {
		m.Eng.ScheduleFn(0, m.drainFn, cn, 0)
	}
	m.finish(v, 0)
	if v.deferred {
		// A cross-domain depart arrived mid-transaction: perform it now
		// that the transaction closed. The step just scheduled above
		// fires in this (old) domain and chases the vCPU to its new one.
		v.deferred = false
		m.departNow(v, v.defFrom, v.defTo)
	}
}

// l1Fill caches read data in the L1 (writes are no-allocate).
func (m *Machine) l1Fill(cn *coreNode, addr mem.BlockAddr, vm mem.VMID, write bool) {
	if write {
		return
	}
	if cn.l1.Lookup(addr) == nil {
		cn.l1.Insert(addr, vm)
	}
}

// finish schedules the vCPU's next reference after latency + think time.
func (m *Machine) finish(v *vcpu, latency sim.Cycle) {
	m.Eng.ScheduleFn(latency+m.cfg.ThinkCycles, m.stepFn, v, uint64(v.dom.idx))
}

// L2 exposes core i's L2 cache (tests and invariant checks).
func (m *Machine) L2(i int) *cache.Cache { return m.cores[i].l2 }

// CheckFilterInvariant verifies virtual snooping's conservativeness: every
// cached block of a VM-private page resides on a core that is in the VM's
// vCPU map. It applies to the base and counter policies (counter-threshold
// is deliberately speculative and relies on protocol retries instead).
func (m *Machine) CheckFilterInvariant() error {
	pol := m.cfg.Filter.Policy
	if pol != core.PolicyBase && pol != core.PolicyCounter && pol != core.PolicyCounterFlush {
		return nil
	}
	for i, cn := range m.cores {
		var err error
		cn.l2.ForEachValid(func(a mem.BlockAddr, b *cache.Block) {
			if err != nil || b.Tokens == 0 {
				return
			}
			if int(b.VM) >= m.cfg.VMs {
				return // hypervisor / dom0 blocks are broadcast anyway
			}
			if m.MM.TypeOf(a.PageOf()) != mem.PagePrivate {
				return
			}
			if !m.filterContains(b.VM, i) {
				err = fmt.Errorf("core %d holds private block %d of VM %d but is not in its vCPU map (map=%v)",
					i, a, b.VM, m.filterOf(cn.dom).MapCores(b.VM))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
