// Package vsnoop is the public API of the virtual-snooping simulator, a
// from-scratch reproduction of "Virtual Snooping: Filtering Snoops in
// Virtualized Multi-cores" (Kim, Kim, Huh — MICRO 2010).
//
// Virtual snooping confines coherence snoops to a VM's *virtual snoop
// domain*: requests to VM-private pages are multicast only to the cores in
// the VM's vCPU map instead of being broadcast to every core. This package
// wraps the full simulation stack — a Token Coherence (MOESI) protocol on
// a 2D-mesh NoC with private L1/L2 caches, a hypervisor model with vCPU
// relocation and content-based page sharing, and calibrated synthetic
// workloads — behind a small configuration surface.
//
// Quick start:
//
//	cfg := vsnoop.DefaultConfig()
//	cfg.Workload = "fft"
//	cfg.Policy = vsnoop.PolicyCounter
//	cfg.MigrationPeriodMs = 5
//	res, err := vsnoop.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("snoops/transaction: %.2f\n", res.SnoopsPerTransaction)
//
// For the paper's experiments (every table and figure), see the
// vsnoop-report command and the internal/exp package; for lower-level
// access (custom protocols, routers, workloads) use the internal packages
// directly from within this module.
package vsnoop

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"vsnoop/internal/core"
	"vsnoop/internal/fault"
	"vsnoop/internal/sim"
	"vsnoop/internal/system"
	"vsnoop/internal/workload"
)

// Policy selects the snoop destination-set policy.
type Policy int

const (
	// PolicyBroadcast is the TokenB baseline (snoop everyone).
	PolicyBroadcast Policy = iota
	// PolicyBase is virtual snooping without vCPU-map cleanup.
	PolicyBase
	// PolicyCounter removes cores via per-VM cache residence counters.
	PolicyCounter
	// PolicyCounterThreshold removes cores speculatively below a
	// threshold, relying on Token Coherence's safe retries.
	PolicyCounterThreshold
	// PolicyCounterFlush removes cores by selectively flushing the VM's
	// remaining blocks below the threshold (the paper's Section IV.B
	// alternative; an extension beyond the evaluated policies).
	PolicyCounterFlush
)

func (p Policy) String() string { return core.Policy(p).String() }

// ContentPolicy selects how content-shared (RO-shared) pages are snooped.
type ContentPolicy int

const (
	// ContentBroadcast snoops every core for content-shared pages.
	ContentBroadcast ContentPolicy = iota
	// ContentMemoryDirect sends content-shared reads to memory only.
	ContentMemoryDirect
	// ContentIntraVM snoops the requesting VM's map plus memory.
	ContentIntraVM
	// ContentFriendVM also snoops the friend VM sharing the most pages.
	ContentFriendVM
)

func (p ContentPolicy) String() string { return core.ContentPolicy(p).String() }

// Config describes one simulation. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	// Cores, VMs and VCPUsPerVM shape the machine (Table II defaults:
	// 16 cores, 4 VMs x 4 vCPUs).
	Cores      int
	VMs        int
	VCPUsPerVM int

	// Workload names the application profile every VM runs (see
	// Workloads() for the calibrated set), or set WorkloadPerVM for a
	// heterogeneous mix.
	Workload      string
	WorkloadPerVM []string

	Policy    Policy
	Content   ContentPolicy
	Threshold int // counter-threshold cutoff (default 10)

	// RefsPerVCPU is the per-vCPU reference-stream length; WarmupRefs of
	// them are excluded from statistics.
	RefsPerVCPU int
	WarmupRefs  int

	// MigrationPeriodMs > 0 relocates vCPUs across VMs with that period
	// (the paper's Section V.C methodology); 0 pins VMs ideally.
	MigrationPeriodMs float64
	CyclesPerMs       uint64

	// ContentSharing enables the content-based page-sharing detector.
	ContentSharing bool
	// Hypervisor enables hypervisor/dom0 activity (Figure 1 methodology);
	// the Section V/VI experiments run without it, like Virtual-GEMS.
	Hypervisor bool

	// Fault, if non-nil, runs the simulation under the given deterministic
	// fault plan (message loss, map corruption, migration storms) with
	// online invariant checking and graceful filter degradation enabled.
	// Identical (Config, FaultPlan, Seed) produce bit-identical results.
	Fault *FaultPlan
	// Checks enables invariant checking without a fault plan (observation
	// only: results are identical with and without it).
	Checks bool
	// MaxSteps bounds the simulation's event count; Run returns an error
	// when it is exhausted (0 = unbounded).
	MaxSteps uint64

	Seed uint64
}

// FaultEventKind enumerates scheduled one-shot fault events.
type FaultEventKind int

const (
	// FaultCorruptMap overwrites a VM's vCPU map register at a cycle:
	// Core >= 0 leaves a single stale entry, Core < 0 clears the map.
	FaultCorruptMap FaultEventKind = iota
	// FaultCorruptCounter adds Count (default -1) to a VM's cache residence
	// counter at a core.
	FaultCorruptCounter
	// FaultMigrationStorm performs Count random cross-VM vCPU swaps
	// back-to-back.
	FaultMigrationStorm
)

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	AtCycle uint64 // absolute simulation cycle
	Kind    FaultEventKind
	VM      int
	Core    int
	Count   int
}

// FaultPlan is a seeded, reproducible fault scenario; see internal/fault
// for the full fault-model rationale. Probabilities are percentages.
type FaultPlan struct {
	Seed uint64

	DropPct  float64 // transient requests destroyed / responses bounced home
	DupPct   float64 // transient requests duplicated
	DelayPct float64 // non-persistent messages delayed
	DelayMax int     // max extra delivery cycles (default 200)

	DegradedLinks     int // mesh links with multiplied serialization cost
	LinkDegradeFactor int // the multiplier (default 4)

	Events []FaultEvent
}

// toInternal converts the public plan to the internal representation.
func (p *FaultPlan) toInternal() *fault.Plan {
	if p == nil {
		return nil
	}
	fp := &fault.Plan{
		Seed:              p.Seed,
		DropPct:           p.DropPct,
		DupPct:            p.DupPct,
		DelayPct:          p.DelayPct,
		DelayMax:          p.DelayMax,
		DegradedLinks:     p.DegradedLinks,
		LinkDegradeFactor: p.LinkDegradeFactor,
	}
	for _, ev := range p.Events {
		fp.Events = append(fp.Events, fault.Event{
			At: sim.Cycle(ev.AtCycle), Kind: fault.EventKind(ev.Kind),
			VM: ev.VM, Core: ev.Core, Count: ev.Count,
		})
	}
	return fp
}

// DefaultConfig returns the paper's Table II system running fft with the
// vsnoop-base policy, ideally pinned.
func DefaultConfig() Config {
	return Config{
		Cores: 16, VMs: 4, VCPUsPerVM: 4,
		Workload:    "fft",
		Policy:      PolicyBase,
		Content:     ContentBroadcast,
		Threshold:   10,
		RefsPerVCPU: 20000,
		WarmupRefs:  5000,
		CyclesPerMs: 100_000,
		Seed:        1,
	}
}

// Validate reports whether the configuration is runnable, without running
// it. It applies the same checks Run performs up front (workload names,
// machine geometry, fault-plan bounds), so servers can reject a bad job
// with a useful message before queueing it.
func (cfg Config) Validate() error {
	sc, err := toSystem(cfg)
	if err != nil {
		return err
	}
	return sc.Validate()
}

// Hash returns the canonical content hash of the configuration: the
// lowercase hex SHA-256 of a versioned, field-ordered encoding. Two
// configurations have equal hashes exactly when they specify the same
// simulation, so the hash is a sound memoization key: determinism
// guarantees equal hashes produce bit-identical Results.
//
// Every semantic field (workloads, policies, fault plan, seed, step
// bounds, checks) is included. The encoding is versioned
// ("vsnoop-config-v5"; v5 runs the invariant checker at the first event
// past each period until every vCPU has finished, and counts a step
// budget before each event, with snoop parking and timeout cancellation on
// under a budget and cancellation on under the checker, so a checked
// run's InvariantChecks and a bounded run's stop point may differ; v4 cut
// only quadrant-placed machines into snoop domains and runs every other
// one as one domain, applies fault-event corruption at once, gives
// copy-on-write one machine-wide overlay, and tells every filter replica
// the friend VM; v3 moved migrated-vCPU event chasing onto the per-domain
// forwarding tables, and v2 moved migration, content-sharing, and
// fault-event configurations onto the partitioned cross-domain semantics
// — older stores must not serve any of them); any future change to the
// encoded fields or to the results they name must bump it so stale stores
// are never misread.
func (cfg Config) Hash() string {
	h := sha256.New()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	w("vsnoop-config-v5\n")
	w("cores=%d\nvms=%d\nvcpusPerVM=%d\n", cfg.Cores, cfg.VMs, cfg.VCPUsPerVM)
	w("workload=%q\n", cfg.Workload)
	w("workloadPerVM.len=%d\n", len(cfg.WorkloadPerVM))
	for i, name := range cfg.WorkloadPerVM {
		w("workloadPerVM[%d]=%q\n", i, name)
	}
	w("policy=%d\ncontent=%d\nthreshold=%d\n", cfg.Policy, cfg.Content, cfg.Threshold)
	w("refsPerVCPU=%d\nwarmupRefs=%d\n", cfg.RefsPerVCPU, cfg.WarmupRefs)
	w("migrationPeriodMs=%s\ncyclesPerMs=%d\n", f64(cfg.MigrationPeriodMs), cfg.CyclesPerMs)
	w("contentSharing=%t\nhypervisor=%t\n", cfg.ContentSharing, cfg.Hypervisor)
	w("checks=%t\nmaxSteps=%d\nseed=%d\n", cfg.Checks, cfg.MaxSteps, cfg.Seed)
	if p := cfg.Fault; p != nil {
		w("fault.seed=%d\n", p.Seed)
		w("fault.dropPct=%s\nfault.dupPct=%s\nfault.delayPct=%s\n",
			f64(p.DropPct), f64(p.DupPct), f64(p.DelayPct))
		w("fault.delayMax=%d\n", p.DelayMax)
		w("fault.degradedLinks=%d\nfault.linkDegradeFactor=%d\n",
			p.DegradedLinks, p.LinkDegradeFactor)
		w("fault.events.len=%d\n", len(p.Events))
		for i, ev := range p.Events {
			w("fault.events[%d]=%d,%d,%d,%d,%d\n",
				i, ev.AtCycle, ev.Kind, ev.VM, ev.Core, ev.Count)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result carries the headline metrics of a run. All counters cover the
// post-warmup measured phase.
type Result struct {
	// ExecCycles is the measured-phase execution time in cycles.
	ExecCycles uint64
	// SnoopsPerTransaction is the mean number of cores snooped per
	// coherence transaction (16 = broadcast on the default machine;
	// 4 = the ideal virtual-snooping multicast).
	SnoopsPerTransaction float64
	// TrafficByteHops is total network traffic in byte-hops.
	TrafficByteHops uint64
	// L2Misses and Transactions count coherence activity.
	L2Misses     uint64
	Transactions uint64
	// Retries and Persistent count Token Coherence recovery actions.
	Retries    uint64
	Persistent uint64
	// Relocations counts vCPU migrations during the run.
	Relocations uint64
	// HypervisorMissPct is the Figure 1 metric (0 without Hypervisor).
	HypervisorMissPct float64
	// ContentAccessPct / ContentMissPct are the Table V metrics.
	ContentAccessPct float64
	ContentMissPct   float64

	// Robustness results (all zero without Config.Fault / Config.Checks).
	// Fault counters are whole-run; see FaultPlan for the fault model.
	FaultsDropped       uint64
	FaultsBounced       uint64
	FaultsDuplicated    uint64
	FaultsDelayed       uint64
	BroadcastFallbacks  uint64 // degraded routes served by full broadcast
	CounterAugFallbacks uint64 // degraded routes served by the counter-augmented map
	MapRebuilds         uint64
	InvariantChecks     uint64
	// InvariantViolations is empty when every registered protocol invariant
	// held at every check (the expected outcome under any fault plan).
	InvariantViolations []string

	// EventsFired is the whole-run simulator event count (never
	// warmup-adjusted), parked snoop deliveries and cancelled retry
	// timeouts included (their numbers are Stats.Sync.ParkedEvents and
	// Stats.Sync.CancelledTimers); with wall-clock time it yields
	// events/second, the engine's throughput metric.
	EventsFired uint64

	// Stats exposes the full low-level statistics record.
	Stats *system.Stats
}

// TotalEventsFired returns the simulator events fired (parked snoop
// deliveries and cancelled retry timeouts included) by every run in this process so far (including runs driven through internal/exp rather
// than Run). It is monotone and safe to read concurrently with in-flight
// runs: each run adds its count when it finishes.
func TotalEventsFired() uint64 { return system.TotalEventsFired() }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	sc, err := toSystem(cfg)
	if err != nil {
		return nil, err
	}
	return runSystem(sc)
}

// RunCtx executes one simulation under a context: when ctx is canceled or
// its deadline passes, the run stops promptly
// and RunCtx returns an error wrapping ctx.Err(). Cancellation is a
// control-plane mechanism: a run that completes before the context fires
// returns a Result bit-identical to Run's, and a canceled run returns no
// partial result. This is the entry point for servers and CLIs that need
// deadlines (vsnoop-serve, -timeout flags).
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if ctx.Done() == nil {
		return Run(cfg) // context.Background(): nothing to watch
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vsnoop: run not started: %w", err)
	}
	sc, err := toSystem(cfg)
	if err != nil {
		return nil, err
	}
	c := sim.NewCanceler()
	sc.Cancel = c
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			c.Cancel()
		case <-stop:
		}
	}()
	res, err := runSystem(sc)
	var ce *sim.CanceledError
	if errors.As(err, &ce) {
		// Prefer the context's own error (Canceled vs DeadlineExceeded) so
		// callers can errors.Is against it; keep the engine position too.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("vsnoop: %w (%v)", cerr, ce)
		}
	}
	return res, err
}

// runSystem executes a validated internal configuration and packages the
// public Result.
func runSystem(sc system.Config) (*Result, error) {
	m, err := system.New(sc)
	if err != nil {
		return nil, err
	}
	st, err := m.RunChecked()
	if err != nil {
		return nil, err
	}
	return &Result{
		ExecCycles:           st.ExecCycles,
		SnoopsPerTransaction: st.SnoopsPerTransaction(),
		TrafficByteHops:      st.ByteHops,
		L2Misses:             st.L2Misses,
		Transactions:         st.Transactions,
		Retries:              st.Retries,
		Persistent:           st.Persistent,
		Relocations:          st.Relocations,
		HypervisorMissPct:    st.HypervisorMissPct(),
		ContentAccessPct:     st.ContentAccessPct(),
		ContentMissPct:       st.ContentMissPct(),
		FaultsDropped:        st.FaultsDropped,
		FaultsBounced:        st.FaultsBounced,
		FaultsDuplicated:     st.FaultsDuplicated,
		FaultsDelayed:        st.FaultsDelayed,
		BroadcastFallbacks:   st.FallbackBroadcast,
		CounterAugFallbacks:  st.FallbackCounterAug,
		MapRebuilds:          st.MapRebuilds,
		InvariantChecks:      st.InvariantChecks,
		InvariantViolations:  st.InvariantViolations,
		EventsFired:          st.EventsFired,
		Stats:                st,
	}, nil
}

// toSystem maps the public configuration onto the internal one.
func toSystem(cfg Config) (system.Config, error) {
	sc := system.DefaultConfig()
	if cfg.Cores > 0 {
		sc.Cores = cfg.Cores
	}
	if cfg.VMs > 0 {
		sc.VMs = cfg.VMs
	}
	if cfg.VCPUsPerVM > 0 {
		sc.VCPUsPerVM = cfg.VCPUsPerVM
	}
	switch {
	case len(cfg.WorkloadPerVM) > 0:
		sc.Workloads = cfg.WorkloadPerVM
	case cfg.Workload != "":
		sc.Workloads = []string{cfg.Workload}
	default:
		return sc, fmt.Errorf("vsnoop: no workload configured")
	}
	for _, w := range sc.Workloads {
		if _, ok := workload.Get(w); !ok {
			return sc, fmt.Errorf("vsnoop: unknown workload %q (see vsnoop.Workloads())", w)
		}
	}
	sc.Filter = core.Config{
		Policy:    core.Policy(cfg.Policy),
		Content:   core.ContentPolicy(cfg.Content),
		Threshold: cfg.Threshold,
	}
	if cfg.RefsPerVCPU > 0 {
		sc.RefsPerVCPU = cfg.RefsPerVCPU
	}
	sc.WarmupRefs = cfg.WarmupRefs
	sc.MigrationPeriodMs = cfg.MigrationPeriodMs
	if cfg.CyclesPerMs > 0 {
		sc.CyclesPerMs = cfg.CyclesPerMs
	}
	sc.ContentSharing = cfg.ContentSharing
	sc.NoHypervisor = !cfg.Hypervisor
	sc.Fault = cfg.Fault.toInternal()
	sc.Checks = cfg.Checks
	sc.MaxSteps = cfg.MaxSteps
	if cfg.Seed != 0 {
		sc.Seed = cfg.Seed
	}
	return sc, nil
}

// Workloads returns the names of all calibrated application profiles.
func Workloads() []string { return workload.Names() }
