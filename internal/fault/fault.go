// Package fault implements deterministic fault injection for the
// virtual-snooping stack. A Plan is a seeded, reproducible description of
// what goes wrong during a run: probabilistic mesh-message faults (drop,
// duplicate, delay), degraded links, and scheduled one-shot events
// (vCPU-map register corruption, residence-counter corruption, vCPU
// migration storms). The Injector turns a Plan into concrete hooks on
// internal/mesh and the system layer.
//
// The fault model is deliberately shaped around the paper's safety
// argument (Section IV): Token Coherence tolerates lost and reordered
// *transient* traffic, so a wrong destination set — or an injected message
// loss — may only cost performance. The injector therefore only destroys
// what the protocol is specified to survive:
//
//   - GetS/GetX transient requests may be dropped, duplicated, or delayed.
//     Loss triggers the requester's timeout/retry path; duplicates are
//     idempotent (a second response is absorbed or written back).
//   - Data/Tokens responses are never destroyed (that would un-conserve
//     tokens and turn a performance fault into a correctness fault no real
//     interconnect exhibits: links corrupt and misroute, but flits are
//     retransmitted). Instead "drop" bounces them to the home memory
//     controller — a misdelivery the protocol absorbs. They may be delayed.
//   - Writebacks (WBData/WBTokens) are delay-only; they already target the
//     home controller.
//   - The persistent-request protocol (PReq/PAct/PRel/PDeact) is exempt
//     entirely: it is the forward-progress guarantee of last resort, and
//     real designs carry it on a reliable virtual channel.
//
// All randomness flows from seeded sim.Rand streams — one per source
// endpoint for message faults, one shared stream for link degradation and
// migration storms — each consumed in deterministic (event-order)
// sequence, so identical (Config, Plan, seed) produce bit-identical runs.
package fault

import (
	"fmt"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// EventKind enumerates scheduled one-shot fault events.
type EventKind int

const (
	// EvCorruptMap overwrites a VM's vCPU map register: Core >= 0 leaves a
	// single stale entry, Core < 0 clears the map.
	EvCorruptMap EventKind = iota
	// EvCorruptCounter adds Count (default -1) to a VM's residence counter
	// at core Core — the soft error that later surfaces as an underflow.
	EvCorruptCounter
	// EvMigrationStorm performs Count random vCPU swaps back-to-back,
	// churning every map at once.
	EvMigrationStorm
)

func (k EventKind) String() string {
	return [...]string{"corrupt-map", "corrupt-counter", "migration-storm"}[k]
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Cycle // absolute injection cycle
	Kind EventKind
	VM   int // target VM (corrupt-map / corrupt-counter)
	Core int // target core; corrupt-map: stale entry (<0 clears)
	// Count is the counter delta (corrupt-counter, default -1) or the
	// number of vCPU swaps (migration-storm, default 4).
	Count int
}

// Plan is a complete, seedable fault scenario. The zero value injects
// nothing (and a nil *Plan disables the subsystem entirely).
type Plan struct {
	// Seed is mixed with the run seed to derive the injector's random
	// stream, so the same plan produces different (but each reproducible)
	// fault sequences across run seeds.
	Seed uint64

	// Per-message fault probabilities, in percent (5 = 5%). Drop applies
	// to transient requests (destroyed) and to token-carrying responses
	// (bounced to the home controller, never destroyed).
	DropPct  float64
	DupPct   float64 // transient requests only
	DelayPct float64 // any non-persistent message
	DelayMax int     // max extra delivery cycles (default 200)

	// DegradedLinks marks that many randomly chosen mesh links as slow,
	// multiplying their serialization cost by LinkDegradeFactor (default 4).
	DegradedLinks     int
	LinkDegradeFactor int

	// Events are scheduled one-shot faults.
	Events []Event
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropPct > 0 || p.DupPct > 0 || p.DelayPct > 0 ||
		p.DegradedLinks > 0 || len(p.Events) > 0
}

// Validate rejects out-of-range probabilities and malformed events.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, pc := range []struct {
		name string
		v    float64
	}{{"DropPct", p.DropPct}, {"DupPct", p.DupPct}, {"DelayPct", p.DelayPct}} {
		if pc.v < 0 || pc.v > 100 {
			return fmt.Errorf("fault: %s %.2f outside [0,100]", pc.name, pc.v)
		}
	}
	if p.DelayMax < 0 || p.DegradedLinks < 0 {
		return fmt.Errorf("fault: negative DelayMax or DegradedLinks")
	}
	for i, ev := range p.Events {
		if ev.Kind < EvCorruptMap || ev.Kind > EvMigrationStorm {
			return fmt.Errorf("fault: event %d has unknown kind %d", i, ev.Kind)
		}
		if ev.VM < 0 {
			return fmt.Errorf("fault: event %d has negative VM", i)
		}
	}
	return nil
}

// Moderate is the reference stress plan used by the soak tests: light
// probabilistic faults on every message class plus one of each scheduled
// event kind placed by the caller.
func Moderate(seed uint64) *Plan {
	return &Plan{Seed: seed, DropPct: 2, DupPct: 1, DelayPct: 2, DelayMax: 200}
}

// Stats counts injected faults (whole-run; never warmup-adjusted).
type Stats struct {
	Dropped            uint64 // transient requests destroyed
	Bounced            uint64 // token-carrying messages redirected home
	Duplicated         uint64
	Delayed            uint64
	MapCorruptions     uint64
	CounterCorruptions uint64
	StormRelocations   uint64 // vCPU swaps performed by migration storms
}

// Injector applies a Plan to a running machine.
type Injector struct {
	Plan *Plan
	// Rng is the shared stream: link degradation and migration storms.
	Rng *sim.Rand
	// Stats holds the scheduled-event counters, which the machine bumps
	// as it applies the plan's events; TotalStats adds the per-node
	// message-fault counters.
	Stats Stats

	mcs                 []mesh.NodeID
	dropP, dupP, delayP float64
	delayMax            int

	// perNode gives every source endpoint its own random stream and fault
	// counters. A node's stream is consumed in that node's send order, so
	// a node's faults depend on its own traffic, not on how other nodes'
	// sends interleave with it. The golden results pin this stream layout.
	perNode []nodeFaults
}

// nodeFaults is one endpoint's fault state.
type nodeFaults struct {
	rng   *sim.Rand
	stats Stats
}

// NewInjector builds an injector for a mesh of nodes endpoints. Its
// random streams mix the plan seed with the run seed.
func NewInjector(plan *Plan, runSeed uint64, nodes int) *Injector {
	delayMax := plan.DelayMax
	if delayMax <= 0 {
		delayMax = 200
	}
	mixed := runSeed ^ (plan.Seed * 0x9e3779b97f4a7c15)
	in := &Injector{
		Plan:     plan,
		Rng:      sim.NewRandTagged(mixed, "fault"),
		dropP:    plan.DropPct / 100,
		dupP:     plan.DupPct / 100,
		delayP:   plan.DelayPct / 100,
		delayMax: delayMax,
		perNode:  make([]nodeFaults, nodes),
	}
	for i := range in.perNode {
		in.perNode[i].rng = sim.NewRandTagged(mixed, fmt.Sprintf("fault-n%d", i))
	}
	return in
}

// TotalStats returns the whole-run fault counters: the scheduled-event
// counters plus every endpoint's message-fault counters.
func (in *Injector) TotalStats() Stats {
	total := in.Stats
	for i := range in.perNode {
		s := &in.perNode[i].stats
		total.Dropped += s.Dropped
		total.Bounced += s.Bounced
		total.Duplicated += s.Duplicated
		total.Delayed += s.Delayed
	}
	return total
}

// Attach installs the message hook on the network and applies link
// degradation. mcNodes maps home-controller interleaving to endpoints
// (bounce targets for token-carrying messages).
func (in *Injector) Attach(net *mesh.Network, mcNodes []mesh.NodeID) {
	in.mcs = mcNodes
	net.FaultHook = in.hook
	if in.Plan.DegradedLinks > 0 {
		f := in.Plan.LinkDegradeFactor
		if f < 2 {
			f = 4
		}
		net.DegradeLinks(in.Plan.DegradedLinks, f, in.Rng)
	}
}

// home returns the home memory controller endpoint for a block (the same
// interleaving the cache controllers use).
func (in *Injector) home(a mem.BlockAddr) mesh.NodeID {
	return in.mcs[uint64(a)%uint64(len(in.mcs))]
}

// hook classifies each injected message and rolls its fate. Non-coherence
// payloads pass through untouched.
func (in *Injector) hook(src, dst mesh.NodeID, bytes int, payload interface{}) mesh.FaultOutcome {
	msg, ok := payload.(*token.Msg)
	if !ok {
		return mesh.FaultOutcome{}
	}
	n := &in.perNode[src]
	rng, stats := n.rng, &n.stats
	var out mesh.FaultOutcome
	switch msg.Kind {
	case token.MsgGetS, token.MsgGetX:
		// Transient requests: fully faultable. Loss is what the
		// timeout/retry path exists for; duplicates are idempotent.
		if in.dropP > 0 && rng.Bool(in.dropP) {
			stats.Dropped++
			out.Drop = true
			return out
		}
		if in.dupP > 0 && rng.Bool(in.dupP) {
			stats.Duplicated++
			out.Duplicate = true
		}
		in.maybeDelay(rng, stats, &out)
	case token.MsgData, token.MsgTokens:
		// Token-carrying: never destroyed, bounced home instead.
		if in.dropP > 0 && rng.Bool(in.dropP) && len(in.mcs) > 0 {
			stats.Bounced++
			out.Redirected = true
			out.RedirectTo = in.home(msg.Addr)
		}
		in.maybeDelay(rng, stats, &out)
	case token.MsgWBData, token.MsgWBTokens:
		// Writebacks already target home: delay-only.
		in.maybeDelay(rng, stats, &out)
	default:
		// Persistent protocol: the reliable channel of last resort.
	}
	return out
}

func (in *Injector) maybeDelay(rng *sim.Rand, stats *Stats, out *mesh.FaultOutcome) {
	if in.delayP > 0 && rng.Bool(in.delayP) {
		stats.Delayed++
		out.Delay = sim.Cycle(1 + rng.Intn(in.delayMax))
	}
}
