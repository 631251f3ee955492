package vsnoop

import (
	"fmt"
	"reflect"
	"testing"
)

// goldenRow pins one configuration's headline results to the exact values
// the simulator produced before the performance overhaul (the zero-alloc
// event kernel, bit-vector vCPU maps, and dense link tables). The overhaul
// must not change simulated behaviour at all: any drift here is a
// determinism regression, not a tolerance question.
type goldenRow struct {
	name        string
	cfg         Config
	hash        string // canonical Config.Hash(), pinned cross-process
	execCycles  uint64
	snoopsPerTx string // %.6f
	byteHops    uint64
	l2Misses    uint64
	txns        uint64
	retries     uint64
	persistent  uint64
	relocations uint64
}

func goldenConfigs() []goldenRow {
	mig := DefaultConfig()
	mig.Workload = "fft"
	mig.Policy = PolicyCounter
	mig.MigrationPeriodMs = 2.5
	mig.RefsPerVCPU = 3000
	mig.WarmupRefs = 500
	mig.Seed = 7

	pinned := DefaultConfig()
	pinned.Workload = "ocean"
	pinned.Policy = PolicyCounterThreshold
	pinned.RefsPerVCPU = 2500
	pinned.WarmupRefs = 400
	pinned.Seed = 3

	content := DefaultConfig()
	content.Workload = "radix"
	content.Policy = PolicyBase
	content.Content = ContentIntraVM
	content.ContentSharing = true
	content.RefsPerVCPU = 2000
	content.WarmupRefs = 300
	content.Seed = 11

	faulted := DefaultConfig()
	faulted.Workload = "fft"
	faulted.Policy = PolicyCounterFlush
	faulted.MigrationPeriodMs = 0.5
	faulted.RefsPerVCPU = 2000
	faulted.WarmupRefs = 300
	faulted.Seed = 5
	faulted.Fault = &FaultPlan{Seed: 9, DropPct: 1, DupPct: 0.5, DelayPct: 1}

	// Every row is quadrant-placed, so each runs cut into the four quadrant
	// domains. ocean-threshold-pinned has carried the same values since the
	// quadrant configs first moved to partitioned execution, so it pins
	// engine continuity across the planner's rise and removal. The
	// migration, content-sharing, and faulted rows were regenerated when
	// those classes moved from a since-deleted single-queue engine to
	// partitioned semantics (ordered cross-domain relocation transactions).
	return []goldenRow{
		{"fft-counter-mig", mig,
			"4acbbdc873486d2c4a68945b8355ff7d0ef26f80e97de2ca2eedab803ac7c122",
			269816, "4.180799", 5802736, 14989, 14989, 1, 0, 2},
		{"ocean-threshold-pinned", pinned,
			"1fce6d09b42e48fc56b09ef4987e8073b8c7b97c8b35f99d164b1407f0018230",
			447681, "4.000000", 9986704, 27981, 27981, 0, 0, 0},
		{"radix-base-content", content,
			"96792382c3fe2135520923827d164e936424048fd890dc5adc2810a960ffdac0",
			311646, "4.000000", 6861696, 19192, 19192, 0, 0, 0},
		{"fft-flush-fault", faulted,
			"5b3437a383fbfb18cfdf810c7749d8e3509626b99f1fa82ac6d27af9ee4a5516",
			224520, "5.519391", 5767696, 12944, 12944, 279, 0, 10},
	}
}

// TestGoldenResults asserts bit-identical results against the pre-overhaul
// simulator across the policy space: a migrating counter run, a pinned
// counter-threshold run, a content-sharing run, and a faulted flush run.
func TestGoldenResults(t *testing.T) {
	for _, g := range goldenConfigs() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecCycles != g.execCycles {
				t.Errorf("ExecCycles = %d, want %d", res.ExecCycles, g.execCycles)
			}
			if s := fmt.Sprintf("%.6f", res.SnoopsPerTransaction); s != g.snoopsPerTx {
				t.Errorf("SnoopsPerTransaction = %s, want %s", s, g.snoopsPerTx)
			}
			if res.TrafficByteHops != g.byteHops {
				t.Errorf("TrafficByteHops = %d, want %d", res.TrafficByteHops, g.byteHops)
			}
			if res.L2Misses != g.l2Misses {
				t.Errorf("L2Misses = %d, want %d", res.L2Misses, g.l2Misses)
			}
			if res.Transactions != g.txns {
				t.Errorf("Transactions = %d, want %d", res.Transactions, g.txns)
			}
			if res.Retries != g.retries {
				t.Errorf("Retries = %d, want %d", res.Retries, g.retries)
			}
			if res.Persistent != g.persistent {
				t.Errorf("Persistent = %d, want %d", res.Persistent, g.persistent)
			}
			if res.Relocations != g.relocations {
				t.Errorf("Relocations = %d, want %d", res.Relocations, g.relocations)
			}
		})
	}
}

// TestGoldenHashes pins each golden row's canonical Config.Hash to a
// literal digest. Because the digests are string constants committed to the
// repo, this doubles as the cross-process stability test: any process, any
// machine, any Go version must encode these configs to the same bytes.
func TestGoldenHashes(t *testing.T) {
	for _, g := range goldenConfigs() {
		if h := g.cfg.Hash(); h != g.hash {
			t.Errorf("%s: Hash() = %s, want %s", g.name, h, g.hash)
		}
	}
}

// TestRunTwiceIdentical runs every golden configuration twice and requires
// the full Result records (including the low-level Stats) to be deeply
// equal: a run must be a pure function of its Config.
func TestRunTwiceIdentical(t *testing.T) {
	for _, g := range goldenConfigs() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			a, err := Run(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs of the same config diverged:\nfirst:  %+v\nsecond: %+v", a, b)
			}
		})
	}
}
