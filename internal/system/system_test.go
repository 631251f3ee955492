package system

import (
	"math"
	"strings"
	"testing"

	"vsnoop/internal/core"
)

// smallCfg returns a quick-running configuration for tests.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.RefsPerVCPU = 3000
	return cfg
}

func runCfg(t *testing.T, cfg Config) *Stats {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run()
	if err := m.CheckFilterInvariant(); err != nil {
		t.Fatalf("filter invariant violated: %v", err)
	}
	return st
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VMs = 5 // 20 vCPUs > 16 cores
	if _, err := New(cfg); err == nil {
		t.Fatal("overcommitted config accepted")
	}
	cfg = DefaultConfig()
	cfg.Workloads = []string{"a", "b"}
	if _, err := New(cfg); err == nil {
		t.Fatal("workload/VM count mismatch accepted")
	}
	cfg = DefaultConfig()
	cfg.Mesh.Width = 3
	if _, err := New(cfg); err == nil {
		t.Fatal("mesh/core mismatch accepted")
	}
	// A block's Cores+1 tokens must fit the memory controllers' int16
	// token counts.
	cfg = DefaultConfig()
	cfg.Cores, cfg.Mesh.Width, cfg.Mesh.Height = math.MaxInt16, math.MaxInt16, 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "token limit") {
		t.Fatalf("Cores+1 > MaxInt16 not rejected for its token count: %v", err)
	}
	cfg.Cores, cfg.Mesh.Width = math.MaxInt16-1, math.MaxInt16-1
	if err := cfg.Validate(); err != nil && strings.Contains(err.Error(), "token limit") {
		t.Fatalf("Cores+1 == MaxInt16 rejected: %v", err)
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	cfg := smallCfg()
	cfg.Filter.Policy = core.PolicyBroadcast
	st := runCfg(t, cfg)
	if st.L1Accesses != uint64(cfg.RefsPerVCPU*16) {
		t.Fatalf("accesses = %d, want %d", st.L1Accesses, cfg.RefsPerVCPU*16)
	}
	if st.L2Misses == 0 || st.Transactions == 0 {
		t.Fatal("no misses/transactions — workload too cacheable to test anything")
	}
	if st.ExecCycles == 0 {
		t.Fatal("execution time not recorded")
	}
	// Broadcast on 16 cores: every transaction snoops all 16.
	if got := st.SnoopsPerTransaction(); got < 15.9 || got > 16.1 {
		t.Fatalf("baseline snoops/transaction = %v, want 16", got)
	}
}

func TestPinnedVSnoopSnoopReduction(t *testing.T) {
	// Section V.B: ideally pinned VMs, snoop reduction is exactly 75%
	// (each VM snoops its 4 cores out of 16) for VM-private traffic.
	base := smallCfg()
	base.Filter.Policy = core.PolicyBroadcast
	bst := runCfg(t, base)

	vs := smallCfg()
	vs.Filter.Policy = core.PolicyBase
	vst := runCfg(t, vs)

	bSnoops := bst.SnoopsPerTransaction()
	vSnoops := vst.SnoopsPerTransaction()
	ratio := vSnoops / bSnoops
	// Hypervisor/dom0 accesses broadcast, so slightly above 0.25.
	if ratio < 0.24 || ratio > 0.35 {
		t.Fatalf("snoop ratio = %v (base %.2f vs vsnoop %.2f), want ~0.25",
			ratio, bSnoops, vSnoops)
	}
}

func TestPinnedVSnoopTrafficReduction(t *testing.T) {
	// Table IV: total network traffic drops by ~62-65%.
	base := smallCfg()
	base.Filter.Policy = core.PolicyBroadcast
	bst := runCfg(t, base)

	vs := smallCfg()
	vs.Filter.Policy = core.PolicyBase
	vst := runCfg(t, vs)

	red := 100 * (1 - float64(vst.ByteHops)/float64(bst.ByteHops))
	if red < 40 || red > 80 {
		t.Fatalf("traffic reduction = %.1f%%, want roughly 60%%", red)
	}
}

func TestPinnedVSnoopNotSlower(t *testing.T) {
	base := smallCfg()
	base.Filter.Policy = core.PolicyBroadcast
	bst := runCfg(t, base)

	vs := smallCfg()
	vs.Filter.Policy = core.PolicyBase
	vst := runCfg(t, vs)

	if float64(vst.ExecCycles) > float64(bst.ExecCycles)*1.05 {
		t.Fatalf("virtual snooping slowed execution: %d vs %d", vst.ExecCycles, bst.ExecCycles)
	}
}

func TestMigrationDegradesBasePolicy(t *testing.T) {
	// Figures 7/8: with migration, vsnoop-base accumulates cores in the
	// maps and loses most of its reduction; counter recovers it.
	// A small L2 lets the new tenant evict the departed VM's blocks within
	// the short test run (the full-size experiments run far longer).
	mk := func(policy core.Policy) *Stats {
		cfg := smallCfg()
		cfg.RefsPerVCPU = 8000
		cfg.L2.SizeBytes = 32 * 1024
		cfg.Filter.Policy = policy
		cfg.MigrationPeriodMs = 0.5
		cfg.CyclesPerMs = 20_000
		return runCfg(t, cfg)
	}
	bst := mk(core.PolicyBroadcast)

	baseSt := mk(core.PolicyBase)
	counterSt := mk(core.PolicyCounter)

	bS := bst.SnoopsPerTransaction()
	vb := baseSt.SnoopsPerTransaction() / bS
	vc := counterSt.SnoopsPerTransaction() / bS
	if baseSt.Relocations == 0 {
		t.Fatal("no relocations happened")
	}
	if vb <= vc {
		t.Fatalf("counter (%.2f) should beat base (%.2f) under migration", vc, vb)
	}
	if vc > 0.8 {
		t.Fatalf("counter ratio = %.2f, reduction nearly lost", vc)
	}
}

func TestCounterRecordsRemovalPeriods(t *testing.T) {
	cfg := smallCfg()
	cfg.RefsPerVCPU = 8000
	cfg.L2.SizeBytes = 32 * 1024
	cfg.Filter.Policy = core.PolicyCounter
	cfg.MigrationPeriodMs = 1
	cfg.CyclesPerMs = 20_000
	st := runCfg(t, cfg)
	if st.RemovalPeriods.N() == 0 {
		t.Fatal("no removal periods recorded (Figure 9 would be empty)")
	}
}

func TestHypervisorMissDecomposition(t *testing.T) {
	cfg := smallCfg()
	cfg.VMs = 2
	cfg.VCPUsPerVM = 4
	cfg.Workloads = []string{"oltp"}
	st := runCfg(t, cfg)
	if st.L2MissesXen == 0 || st.L2MissesDom0 == 0 {
		t.Fatal("no hypervisor/dom0 misses recorded (Figure 1 empty)")
	}
	pct := st.HypervisorMissPct()
	if pct <= 0 || pct >= 60 {
		t.Fatalf("hypervisor miss pct = %.1f, implausible", pct)
	}
	if st.L2MissesGuest+st.L2MissesXen+st.L2MissesDom0 != st.L2Misses {
		t.Fatal("miss decomposition does not add up")
	}
}

func TestContentSharingStats(t *testing.T) {
	cfg := smallCfg()
	cfg.Workloads = []string{"canneal"}
	cfg.ContentSharing = true
	st := runCfg(t, cfg)
	if st.L1AccessesContent == 0 || st.L2MissesContent == 0 {
		t.Fatal("no content-page activity (Table V empty)")
	}
	holders := st.HolderMemory + st.HolderIntraVM + st.HolderFriend + st.HolderOther
	if holders != st.L2MissesContent {
		t.Fatalf("holder decomposition %d != content misses %d", holders, st.L2MissesContent)
	}
	ap := st.ContentAccessPct()
	if ap < 10 || ap > 40 {
		t.Fatalf("canneal content access pct = %.1f, calibrated for ~25", ap)
	}
}

func TestContentPoliciesReduceSnoops(t *testing.T) {
	run := func(cp core.ContentPolicy) *Stats {
		cfg := smallCfg()
		cfg.Workloads = []string{"canneal"}
		cfg.ContentSharing = true
		cfg.Filter.Policy = core.PolicyBase
		cfg.Filter.Content = cp
		return runCfg(t, cfg)
	}
	bcast := run(core.ContentBroadcast)
	md := run(core.ContentMemoryDirect)
	intra := run(core.ContentIntraVM)
	friend := run(core.ContentFriendVM)

	if !(md.SnoopsIssued < intra.SnoopsIssued) {
		t.Fatalf("memory-direct (%d) should snoop less than intra-VM (%d)",
			md.SnoopsIssued, intra.SnoopsIssued)
	}
	if !(intra.SnoopsIssued < friend.SnoopsIssued) {
		t.Fatalf("intra-VM (%d) should snoop less than friend-VM (%d)",
			intra.SnoopsIssued, friend.SnoopsIssued)
	}
	if !(friend.SnoopsIssued < bcast.SnoopsIssued) {
		t.Fatalf("friend-VM (%d) should snoop less than broadcast (%d)",
			friend.SnoopsIssued, bcast.SnoopsIssued)
	}
}

func TestCopyOnWriteTriggersDuringRun(t *testing.T) {
	cfg := smallCfg()
	cfg.Workloads = []string{"canneal"}
	cfg.ContentSharing = true
	st := runCfg(t, cfg)
	// canneal's generator never writes content pages directly, but other
	// regions do not COW either; expect zero. Use a synthetic check: COWs
	// must be counted when they happen (0 is fine here).
	_ = st.Cows
}

func TestDeterministicMachineRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		cfg := smallCfg()
		cfg.RefsPerVCPU = 2000
		cfg.Filter.Policy = core.PolicyCounter
		cfg.MigrationPeriodMs = 1
		cfg.CyclesPerMs = 10_000
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := m.Run()
		return st.ExecCycles, st.SnoopsIssued, st.ByteHops
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestHeterogeneousWorkloads(t *testing.T) {
	cfg := smallCfg()
	cfg.Workloads = []string{"fft", "lu", "radix", "ocean"}
	st := runCfg(t, cfg)
	if st.L2Misses == 0 {
		t.Fatal("heterogeneous run produced no misses")
	}
}

func TestMigrationWithDelayedResumes(t *testing.T) {
	// Regression: TLB walks and COW traps delay a reference past a vCPU
	// shuffle; the resumed reference must re-check controller occupancy
	// instead of colliding with the new tenant's transaction.
	cfg := smallCfg()
	cfg.RefsPerVCPU = 12000
	cfg.L2.SizeBytes = 16 * 1024
	cfg.L1.SizeBytes = 8 * 1024
	cfg.Workloads = []string{"canneal"} // content-heavy: many TLB walks
	cfg.ContentSharing = true
	cfg.Filter.Policy = core.PolicyCounter
	cfg.MigrationPeriodMs = 0.1
	cfg.CyclesPerMs = 10_000
	cfg.TLB.Entries = 8 // tiny TLB: constant walks
	cfg.TLB.Ways = 2
	st := runCfg(t, cfg)
	if st.TLBMisses == 0 {
		t.Fatal("test wants TLB pressure but saw no misses")
	}
	if st.Relocations == 0 {
		t.Fatal("test wants relocations")
	}
}

func TestDirectoryProtocolRun(t *testing.T) {
	cfg := smallCfg()
	cfg.Directory = true
	st := runCfg(t, cfg)
	if st.L2Misses == 0 || st.Transactions == 0 {
		t.Fatal("directory run produced no coherence activity")
	}
	if st.SnoopsIssued != 0 {
		t.Fatalf("directory mode issued %d snoops; directories do not snoop", st.SnoopsIssued)
	}
	if st.DirLookups == 0 {
		t.Fatal("no directory lookups recorded")
	}
	if st.DRAMReads == 0 {
		t.Fatal("no DRAM activity")
	}
}

func TestDirectoryVsSnoopingTraffic(t *testing.T) {
	// The comparison the paper implies: a directory avoids broadcast
	// traffic entirely, so its traffic is well below the TokenB baseline —
	// and filtered snooping closes most of that gap without indirection.
	base := smallCfg()
	base.Filter.Policy = core.PolicyBroadcast
	bst := runCfg(t, base)

	dir := smallCfg()
	dir.Directory = true
	dst := runCfg(t, dir)

	if dst.ByteHops >= bst.ByteHops {
		t.Fatalf("directory traffic %d not below broadcast %d", dst.ByteHops, bst.ByteHops)
	}
}
