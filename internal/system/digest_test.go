package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"vsnoop/internal/core"
	"vsnoop/internal/fault"
)

// statsEqual compares every exported field of two statistics records,
// treating the latency sample and removal-period CDF through their summary
// accessors (their internals hold equivalent but unexported state). Sync is
// skipped: it reports how events ran (parked, cancelled), not what the
// simulation computed.
func statsEqual(t *testing.T, label string, a, b *Stats) {
	t.Helper()
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	tp := va.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if f.PkgPath != "" || f.Name == "RemovalPeriods" || f.Name == "MissLatency" ||
			f.Name == "Sync" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("%s: field %s differs: %v vs %v",
				label, f.Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	if a.MissLatency.N() != b.MissLatency.N() || a.MissLatency.Mean() != b.MissLatency.Mean() {
		t.Errorf("%s: miss latency differs: %d/%v vs %d/%v", label,
			a.MissLatency.N(), a.MissLatency.Mean(), b.MissLatency.N(), b.MissLatency.Mean())
	}
	if removalN(a) != removalN(b) {
		t.Errorf("%s: removal periods differ: %d vs %d", label, removalN(a), removalN(b))
	}
}

// removalN is the sample count of st's removal-period CDF (0 when absent).
func removalN(st *Stats) int {
	if st.RemovalPeriods == nil {
		return 0
	}
	return st.RemovalPeriods.N()
}

// statsDigest hashes the fields statsEqual compares, in the same form: two
// records that statsEqual accepts have the same digest. EventsFired is
// among them.
func statsDigest(st *Stats) string {
	h := sha256.New()
	v := reflect.ValueOf(*st)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.PkgPath != "" || f.Name == "Sync" {
			continue
		}
		fmt.Fprintf(h, "%s=", f.Name)
		switch f.Name {
		case "MissLatency":
			fmt.Fprintf(h, "%d %v", st.MissLatency.N(), st.MissLatency.Mean())
		case "RemovalPeriods":
			fmt.Fprintf(h, "%d", removalN(st))
		default:
			fmt.Fprintf(h, "%v", v.Field(i).Interface())
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestCase is one configuration whose statistics are pinned:
// set adjusts DefaultConfig, and check asserts the run exercised what the
// case is about. A named case runs under a top-level test of its own,
// named for the protocol it drives, instead of under TestStatsDigests.
type digestCase struct {
	name  string
	set   func(*Config)
	check func(t *testing.T, st *Stats)
	named bool
}

// statsDigests holds each case's statsDigest. They were captured from the
// multi-goroutine engine, which produced each of them at K = 1 and K = 4
// alike, so they pin the one-goroutine engine to that proven event order.
// directory-writebacks came later, from the one-goroutine engine itself.
// linear-placement and large-mesh were re-pinned when machines without
// quadrant placement became one domain, regionscout when its broadcasts
// began to learn regions at once, and fault-events when map and counter
// corruption began to apply as the event fires. storm and fault-events were
// re-pinned again, with InvariantChecks the only field that moved, when the
// checker began to sweep at the first event past each period instead of at
// window starts, and to stop sweeping once every vCPU had finished.
// persistent-arbitration came from the one-goroutine engine.
var statsDigests = map[string]string{
	"tokenB_vsnoop-broadcast":            "820e8f9293ac10b0",
	"tokenB_memory-direct":               "820e8f9293ac10b0",
	"tokenB_intra-VM":                    "820e8f9293ac10b0",
	"tokenB_friend-VM":                   "820e8f9293ac10b0",
	"vsnoop-base_vsnoop-broadcast":       "b7ee0ba9ab084394",
	"vsnoop-base_memory-direct":          "b7ee0ba9ab084394",
	"vsnoop-base_intra-VM":               "b7ee0ba9ab084394",
	"vsnoop-base_friend-VM":              "b7ee0ba9ab084394",
	"counter_vsnoop-broadcast":           "b7ee0ba9ab084394",
	"counter_memory-direct":              "b7ee0ba9ab084394",
	"counter_intra-VM":                   "b7ee0ba9ab084394",
	"counter_friend-VM":                  "b7ee0ba9ab084394",
	"counter-threshold_vsnoop-broadcast": "b7ee0ba9ab084394",
	"counter-threshold_memory-direct":    "b7ee0ba9ab084394",
	"counter-threshold_intra-VM":         "b7ee0ba9ab084394",
	"counter-threshold_friend-VM":        "b7ee0ba9ab084394",
	"counter-flush_vsnoop-broadcast":     "b7ee0ba9ab084394",
	"counter-flush_memory-direct":        "b7ee0ba9ab084394",
	"counter-flush_intra-VM":             "b7ee0ba9ab084394",
	"counter-flush_friend-VM":            "b7ee0ba9ab084394",
	"fault-plan":                         "996952ed7d45d7d9",
	"hypervisor":                         "b7ee0ba9ab084394",
	"migration":                          "b7ae9aaaca18dd1e",
	"storm":                              "c414caf4ba0edaa0",
	"content-sharing":                    "4565367e86455755",
	"regionscout":                        "a73de16ab3c7cbd4",
	"directory":                          "a481640ecc2d2b89",
	"directory-writebacks":               "6402ad7d19997a53",
	"linear-placement":                   "811b7d4826baed06",
	"fault-events":                       "29ecaf82c13e3ada",
	"large-mesh":                         "ed4b138e9f5e2675",
	"migration-content":                  "d0c44e58fe728d6e",
	"persistent-arbitration":             "2817ee11312a30d6",
}

// digestCases lists every snoop policy x content policy pair, then the
// configurations that drive each protocol of the machine: fault plans,
// hypervisor activity, migration and storms, content sharing, RegionScout,
// the directory, linear VM placement, scheduled fault events, an 8x8 mesh,
// migration over content sharing, and the memory controllers' persistent
// arbitration under heavy faults. Linear placement and the 8x8 mesh run as
// one domain; every other case is cut into the four quadrants.
func digestCases() []digestCase {
	var cases []digestCase
	for _, pol := range []core.Policy{core.PolicyBroadcast, core.PolicyBase, core.PolicyCounter,
		core.PolicyCounterThreshold, core.PolicyCounterFlush} {
		for _, con := range []core.ContentPolicy{core.ContentBroadcast, core.ContentMemoryDirect,
			core.ContentIntraVM, core.ContentFriendVM} {
			pol, con := pol, con
			cases = append(cases, digestCase{name: fmt.Sprintf("%v_%v", pol, con), set: func(c *Config) {
				c.RefsPerVCPU, c.WarmupRefs = 1200, 200
				c.Filter.Policy, c.Filter.Content = pol, con
			}})
		}
	}
	storms := func(t *testing.T, st *Stats) {
		if st.StormRelocations == 0 {
			t.Error("storms relocated nothing")
		}
	}
	return append(cases,
		digestCase{name: "fault-plan", set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1500, 300
			c.Filter.Policy = core.PolicyCounter
			c.NoHypervisor = true
			c.Fault = fault.Moderate(7)
		}, check: func(t *testing.T, st *Stats) {
			if st.FaultsDropped == 0 && st.FaultsBounced == 0 && st.FaultsDelayed == 0 {
				t.Error("fault plan injected nothing")
			}
			if st.InvariantChecks == 0 {
				t.Error("checker never ran")
			}
		}},
		digestCase{name: "hypervisor", set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.NoHypervisor = false
		}},
		digestCase{name: "migration", named: true, set: func(c *Config) {
			c.RefsPerVCPU = 1000
			c.MigrationPeriodMs, c.CyclesPerMs = 2, 12000
		}, check: func(t *testing.T, st *Stats) {
			if st.Relocations == 0 || st.MapSyncs == 0 {
				t.Errorf("%d relocations synchronized %d VM maps", st.Relocations, st.MapSyncs)
			}
		}},
		digestCase{name: "storm", set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 3000, 400
			c.Filter.Policy = core.PolicyCounter
			c.MigrationPeriodMs, c.CyclesPerMs = 2, 12000
			c.Fault = fault.Moderate(13)
			c.Fault.Events = append(c.Fault.Events,
				fault.Event{At: 20000, Kind: fault.EvMigrationStorm, Count: 6},
				fault.Event{At: 60000, Kind: fault.EvMigrationStorm, Count: 6})
		}, check: storms},
		digestCase{name: "content-sharing", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.ContentSharing = true
			c.Filter.Policy, c.Filter.Content = core.PolicyCounter, core.ContentFriendVM
		}, check: func(t *testing.T, st *Stats) {
			if st.L1AccessesContent == 0 {
				t.Error("content-sharing run touched no content pages")
			}
			if st.HolderMemory+st.HolderIntraVM+st.HolderFriend+st.HolderOther == 0 {
				t.Error("no holder classifications recorded")
			}
		}},
		digestCase{name: "regionscout", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.UseRegionScout = true
		}, check: func(t *testing.T, st *Stats) {
			if st.RegionBroadcasts == 0 {
				t.Error("RegionScout issued no broadcasts")
			}
		}},
		digestCase{name: "directory", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.Directory = true
		}, check: func(t *testing.T, st *Stats) {
			if st.DirLookups == 0 {
				t.Error("directory saw no lookups")
			}
		}},
		digestCase{name: "directory-writebacks", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.Directory = true
			c.L1.SizeBytes, c.L2.SizeBytes = 4*1024, 16*1024
		}, check: func(t *testing.T, st *Stats) {
			if st.Writebacks == 0 {
				t.Error("directory wrote no owned block back")
			}
		}},
		digestCase{name: "linear-placement", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1200, 200
			c.LinearPlacement = true
		}},
		digestCase{name: "fault-events", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1500, 300
			c.NoHypervisor = false
			c.Filter.Policy = core.PolicyCounterThreshold
			c.Fault = &fault.Plan{Seed: 21, Events: []fault.Event{
				{At: 15000, Kind: fault.EvCorruptMap, VM: 1, Core: 5},
				{At: 25000, Kind: fault.EvCorruptCounter, VM: 2, Core: 9, Count: 3},
				{At: 35000, Kind: fault.EvMigrationStorm, Count: 4},
				{At: 55000, Kind: fault.EvMigrationStorm, Count: 4},
			}}
		}, check: func(t *testing.T, st *Stats) {
			if st.MapCorruptions != 1 || st.CounterCorruptions != 1 {
				t.Errorf("corruption events lost: map=%d counter=%d", st.MapCorruptions, st.CounterCorruptions)
			}
			storms(t, st)
		}},
		digestCase{name: "large-mesh", named: true, set: func(c *Config) {
			c.Cores, c.Mesh.Width, c.Mesh.Height, c.VMs = 64, 8, 8, 16
			c.RefsPerVCPU, c.WarmupRefs = 400, 100
		}},
		digestCase{name: "migration-content", named: true, set: func(c *Config) {
			c.RefsPerVCPU, c.WarmupRefs = 1000, 200
			c.ContentSharing = true
			c.Filter.Content = core.ContentIntraVM
			c.MigrationPeriodMs, c.CyclesPerMs = 2, 12000
		}, check: func(t *testing.T, st *Stats) {
			if st.Relocations == 0 || st.L1AccessesContent == 0 {
				t.Errorf("%d relocations, %d content-page accesses", st.Relocations, st.L1AccessesContent)
			}
		}},
		// Every miss that fails its first attempt goes persistent, and
		// delays of up to 3,000 cycles keep requests in flight long
		// enough for requesters of one content-shared block to queue
		// behind each other and for a bounced response to come home
		// while its sender's own persistent request is active.
		digestCase{name: "persistent-arbitration", named: true, set: func(c *Config) {
			c.Workloads = []string{"blackscholes"}
			c.RefsPerVCPU, c.WarmupRefs = 800, 200
			c.Filter.Policy = core.PolicyCounter
			c.ContentSharing = true
			c.P.RetriesBeforeBroadcast, c.P.RetriesBeforePersistent = 1, 1
			c.Fault = &fault.Plan{Seed: 7, DropPct: 30, DelayPct: 50, DelayMax: 3000}
		}},
	)
}

// TestStatsDigests runs every digestCase that has no test of its own and
// requires its pinned statistics digest, so any change to the simulated
// event order of the partitioned machine, down to EventsFired, fails here
// by name.
func TestStatsDigests(t *testing.T) {
	cases := digestCases()
	if len(cases) != len(statsDigests) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(statsDigests))
	}
	for _, tc := range cases {
		if tc.named {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runDigestCase(t, tc)
		})
	}
}

// runNamedDigestCase runs the named digestCase called name and returns
// its machine.
func runNamedDigestCase(t *testing.T, name string) *Machine {
	t.Helper()
	t.Parallel()
	for _, tc := range digestCases() {
		if tc.name == name {
			if !tc.named {
				t.Fatalf("case %s is not named; TestStatsDigests runs it", name)
			}
			return runDigestCase(t, tc)
		}
	}
	t.Fatalf("no digest case %s", name)
	return nil
}

// runDigestCase runs tc, requires a clean checked run and tc's own check,
// compares the statistics with the pinned digest and returns the machine.
func runDigestCase(t *testing.T, tc digestCase) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	tc.set(&cfg)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFilterInvariant(); err != nil {
		t.Fatalf("filter invariant violated: %v", err)
	}
	if len(st.InvariantViolations) != 0 {
		t.Fatalf("invariants violated: %v", st.InvariantViolations)
	}
	if tc.check != nil {
		tc.check(t, st)
	}
	if got, want := statsDigest(st), statsDigests[tc.name]; got != want {
		t.Errorf("statistics digest %s, pinned %s (EventsFired %d)", got, want, st.EventsFired)
	}
	return m
}

// TestMigrationBitIdentical pins runtime vCPU migration: the shuffler runs
// as a machine-owned dom0 tick and every relocation is an ordered
// depart/arrive/ack transaction between domains.
func TestMigrationBitIdentical(t *testing.T) { runNamedDigestCase(t, "migration") }

// TestContentSharingBitIdentical pins the content-shared page machinery —
// the COW overlay onto preallocated targets, domain-local provider
// designation, and the cross-domain holder-classification probes — under
// the friend-VM snoop policy that consumes all of it.
func TestContentSharingBitIdentical(t *testing.T) { runNamedDigestCase(t, "content-sharing") }

// TestRegionScoutBitIdentical pins the RegionScout router: a broadcast
// scans every other core's region presence and learns a not-shared region
// at once.
func TestRegionScoutBitIdentical(t *testing.T) { runNamedDigestCase(t, "regionscout") }

// TestDirectoryWritebacksBitIdentical pins the directory protocol's owned-
// block writebacks: caches small enough that the run evicts owned blocks,
// so a writeback's timing and effect at the home reach the digest.
func TestDirectoryWritebacksBitIdentical(t *testing.T) { runNamedDigestCase(t, "directory-writebacks") }

// TestDirectoryBitIdentical pins the directory protocol: home state is owned
// by the MC's domain, and per-domain home counters fold into the run totals.
func TestDirectoryBitIdentical(t *testing.T) { runNamedDigestCase(t, "directory") }

// TestLinearPlacementBitIdentical pins linear (row-major) VM placement,
// which runs as one domain with one shared filter.
func TestLinearPlacementBitIdentical(t *testing.T) { runNamedDigestCase(t, "linear-placement") }

// TestFaultEventsBitIdentical pins scheduled fault events with hypervisor
// activity layered in: map and counter corruption apply when the event
// fires, and migration storms run as ordered cross-domain relocations.
func TestFaultEventsBitIdentical(t *testing.T) { runNamedDigestCase(t, "fault-events") }

// TestLargeMeshBitIdentical pins an 8x8 mesh with 16 VMs placed linearly,
// which runs as one domain.
func TestLargeMeshBitIdentical(t *testing.T) { runNamedDigestCase(t, "large-mesh") }

// TestMigrationContentCombined is the everything-at-once pin: periodic
// migration over content-shared pages, so relocation transactions, COW
// traps, holder probes, and filter deltas all interleave.
func TestMigrationContentCombined(t *testing.T) { runNamedDigestCase(t, "migration-content") }

// TestPersistentArbitrationBitIdentical pins the memory controllers'
// persistent arbitration at machine level and requires the run to take its
// fault-only paths: a requester's own tokens bounced home while its
// persistent request is active, which memory forwards back to it, and a
// queued persistent request retried, which stays queued once. The third
// path, a release withdrawing a queued requester, is left to
// internal/memctrl and internal/token: no configuration of a bounded
// search took it at machine level.
func TestPersistentArbitrationBitIdentical(t *testing.T) {
	m := runNamedDigestCase(t, "persistent-arbitration")
	var own, retried uint64
	for _, mc := range m.mcs {
		own += mc.Stats.OwnTokensForwarded
		retried += mc.Stats.QueuedRetries
	}
	if own == 0 || retried == 0 {
		t.Errorf("%d own tokens forwarded, %d queued requests retried; want both nonzero", own, retried)
	}
}
