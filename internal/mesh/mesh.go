// Package mesh models the on-chip interconnect of the simulated system: a
// 2D mesh (4x4 in the paper's Table II) with dimension-ordered XY routing,
// 16-byte links, a 4-cycle router pipeline, and per-link serialization so
// that snoop-request broadcasts create real contention. The network
// accounts traffic in byte-hops (bytes transferred x links traversed),
// which is the quantity Table IV reports ("the total amount of data
// transferred through the network").
//
// Multicasts are modeled as one unicast per destination, matching the
// broadcast behaviour of the TokenB baseline; virtual snooping's savings
// come from shrinking the destination set. Network.Multicast sends them in
// one call, with the work every unicast shares done once, and hands back
// the deliveries its caller's keep mask takes out of the queue.
package mesh

import (
	"fmt"

	"vsnoop/internal/sim"
)

// NodeID identifies a network endpoint (core caches and memory
// controllers alike).
type NodeID int

// Config describes the mesh.
type Config struct {
	Width, Height     int
	LinkBytesPerCycle int       // link width (bytes accepted per cycle)
	RouterDelay       sim.Cycle // per-hop router pipeline depth
	LinkDelay         sim.Cycle // per-hop wire delay
	Contention        bool      // serialize messages on links
}

// DefaultConfig matches Table II: 4x4 2D mesh, 16 B links, 4-cycle router
// pipeline.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, LinkBytesPerCycle: 16, RouterDelay: 4, LinkDelay: 1, Contention: true}
}

// Handler consumes a delivered payload at a node.
type Handler func(payload interface{})

type node struct {
	x, y    int
	handler Handler
}

// Delivery is one message's delivery as the network would queue it: due
// at (At, Key) in executing domain Dom, at endpoint Dst. Multicast hands
// back the deliveries its keep mask keeps out of the queue in this form.
type Delivery struct {
	At  sim.Cycle
	Key uint64
	Dom int32
	Dst int32
}

// Directed link directions. A link is identified by its source router
// coordinates and direction, flattened to a dense id by linkID so the
// per-link tables are plain arrays instead of maps.
const (
	dirEast  = 0
	dirWest  = 1
	dirNorth = 2
	dirSouth = 3
)

// FaultOutcome tells the network what the fault layer decided for one
// injected message. The zero value means "deliver normally".
type FaultOutcome struct {
	// Drop discards the message at injection (no traffic is charged; the
	// fault layer accounts it). Only messages whose loss the protocol
	// tolerates may be dropped — see internal/fault for the classification.
	Drop bool
	// Duplicate injects a second, independently routed copy.
	Duplicate bool
	// Delay adds extra cycles to the arrival time (late delivery).
	Delay sim.Cycle
	// Redirected reroutes the message to RedirectTo instead of its
	// destination (misdelivery; internal/fault uses it to bounce
	// token-carrying messages to the home memory controller so tokens are
	// never destroyed).
	Redirected bool
	RedirectTo NodeID
}

// FaultHook inspects every injected message and decides its fate. It must be
// deterministic given the injection sequence (all randomness from seeded
// sim.Rand streams) so faulted runs stay reproducible.
type FaultHook func(src, dst NodeID, bytes int, payload interface{}) FaultOutcome

// Network is the mesh interconnect. Create with New, attach endpoints,
// then Send. All delivery happens through the shared sim.Engine.
type Network struct {
	cfg   Config
	eng   *sim.Engine
	nodes []node

	// nextFree[linkID] is the cycle at which a directed link next accepts a
	// flit — a dense array indexed by linkID, sized 4 links per router.
	nextFree []sim.Cycle

	// deliver is the prebound delivery handler shared by every in-flight
	// message (payload rides in the event's arg, the destination in u), so
	// scheduling a delivery allocates nothing.
	deliver sim.HandlerFn

	// FaultHook, if set, is consulted on every Send (fault injection).
	FaultHook FaultHook

	// degraded[linkID] is a serialization multiplier > 1 when the link is
	// degraded (link-width fault: fewer bytes accepted per cycle), 0
	// otherwise; nil until DegradeLinks degrades one.
	degraded []int32

	// Domain partition: nodeDom maps endpoints to snoop domains (every
	// endpoint is in domain 0 until Partition), traf is the per-domain
	// traffic accounting, charged to the sending domain, and crossHor the
	// per-domain minimum cross-domain latency.
	nodeDom  []int32
	traf     []trafficSlot
	crossHor []sim.Cycle
}

// trafficSlot is one domain's traffic counters, flit-quantized: a message
// occupies whole flits of LinkBytesPerCycle bytes on every link it crosses
// (an 8-byte control message on a 16-byte link still costs one full flit),
// which matches how Garnet-style NoC models account traffic.
type trafficSlot struct {
	byteHops uint64 // flit-quantized bytes x links traversed
	bytes    uint64 // flit-quantized bytes injected
	messages uint64
}

// New creates a mesh network driven by eng, with every endpoint in
// domain 0 until Partition.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.LinkBytesPerCycle <= 0 {
		panic("mesh: invalid config")
	}
	n := &Network{
		cfg: cfg, eng: eng,
		nextFree: make([]sim.Cycle, cfg.Width*cfg.Height*4),
		traf:     make([]trafficSlot, 1),
	}
	n.deliver = func(payload interface{}, dst uint64) {
		if h := n.nodes[dst].handler; h != nil {
			h(payload)
		}
	}
	return n
}

// linkID flattens a directed link (source router x,y plus direction) to a
// dense table index.
func (n *Network) linkID(x, y, dir int) int {
	return (y*n.cfg.Width+x)<<2 | dir
}

// Partition cuts the network into nd domains: endpoint i belongs to snoop
// domain nodeDom[i], and every delivery is scheduled in its destination's
// domain. Intra-domain messages
// keep the full link-contention model — XY routes between endpoints of an
// axis-aligned domain never leave it. Cross-domain messages are delivered
// at zero-load latency, with no link reservations (see transmit). Call
// after Attach-ing every endpoint and before any Send.
func (n *Network) Partition(nodeDom []int32, nd int) {
	if len(nodeDom) != len(n.nodes) {
		panic(fmt.Sprintf("mesh: partition of %d nodes, have %d", len(nodeDom), len(n.nodes)))
	}
	n.nodeDom = nodeDom
	n.traf = make([]trafficSlot, nd)
	// Precompute each domain's cross-domain horizon: the minimum zero-load
	// latency of any message it can send to another domain (one-flit
	// serialization is the floor — serialization() never returns less than
	// one cycle, and fault delays only add).
	n.crossHor = make([]sim.Cycle, nd)
	for src := range n.nodes {
		sd := nodeDom[src]
		for dst := range n.nodes {
			if nodeDom[dst] == sd {
				continue
			}
			l := n.Latency(NodeID(src), NodeID(dst), 1)
			if h := n.crossHor[sd]; h == 0 || l < h {
				n.crossHor[sd] = l
			}
		}
	}
}

// CrossHorizons returns, per domain, the minimum zero-load latency of any
// cross-domain message the domain can originate (nil before Partition). A
// zero entry means the domain has no cross-domain destination. The
// partitioned machine delays its own cross-domain protocol events
// (migration legs, filter deltas, holder probes) by these horizons, so
// they stay part of its event order.
func (n *Network) CrossHorizons() []sim.Cycle { return n.crossHor }

// TrafficTotals returns the whole-machine traffic counters, summing the
// per-domain slots.
func (n *Network) TrafficTotals() (byteHops, bytes, messages uint64) {
	for i := range n.traf {
		t := &n.traf[i]
		byteHops += t.byteHops
		bytes += t.bytes
		messages += t.messages
	}
	return
}

// DomainTraffic returns domain d's traffic counters.
func (n *Network) DomainTraffic(d int) (byteHops, bytes, messages uint64) {
	t := &n.traf[d]
	return t.byteHops, t.bytes, t.messages
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers an endpoint at router (x, y) and returns its NodeID.
// Multiple endpoints may share a router (e.g. a corner core and a memory
// controller).
func (n *Network) Attach(x, y int, h Handler) NodeID {
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		panic(fmt.Sprintf("mesh: attach at (%d,%d) outside %dx%d", x, y, n.cfg.Width, n.cfg.Height))
	}
	n.nodes = append(n.nodes, node{x: x, y: y, handler: h})
	n.nodeDom = append(n.nodeDom, 0)
	return NodeID(len(n.nodes) - 1)
}

// SetHandler replaces the delivery handler of an endpoint (useful when the
// endpoint object is constructed after the network).
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// Coords returns the router coordinates of an endpoint.
func (n *Network) Coords(id NodeID) (x, y int) {
	nd := n.nodes[id]
	return nd.x, nd.y
}

// Hops returns the XY-routing hop count between two endpoints (the
// Manhattan distance between their routers).
func (n *Network) Hops(src, dst NodeID) int {
	a, b := n.nodes[src], n.nodes[dst]
	return abs(a.x-b.x) + abs(a.y-b.y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// serialization returns the cycles needed to push bytes through one link.
func (n *Network) serialization(bytes int) sim.Cycle {
	s := sim.Cycle((bytes + n.cfg.LinkBytesPerCycle - 1) / n.cfg.LinkBytesPerCycle)
	if s == 0 {
		s = 1
	}
	return s
}

// Latency returns the zero-load latency of a message (no contention):
// router pipeline + wire delay per hop, plus one serialization term
// (wormhole switching: the body streams behind the header).
func (n *Network) Latency(src, dst NodeID, bytes int) sim.Cycle {
	return n.latency(n.Hops(src, dst), n.serialization(bytes))
}

// latency is Latency for a route of hops hops and a per-link
// serialization of ser cycles.
func (n *Network) latency(hops int, ser sim.Cycle) sim.Cycle {
	if hops == 0 {
		// Local delivery still crosses the router once.
		return n.cfg.RouterDelay + ser
	}
	return sim.Cycle(hops)*(n.cfg.RouterDelay+n.cfg.LinkDelay) + ser
}

// fanout is what every message of one Multicast shares, computed once per
// call, and what the call adds up as it goes: the traffic, charged to the
// source domain once at the end, and the deliveries it queued or kept.
type fanout struct {
	src       NodeID
	x, y      int // source router
	bytes     int
	ser       sim.Cycle // per-link serialization
	flitBytes uint64
	payload   interface{}
	now       sim.Cycle
	sd        int32 // source domain
	keep      uint64
	kept      []Delivery
	queued    int
	// messages counts the messages injected, and links the links they
	// crossed, a zero-hop message counting one.
	messages, links uint64
}

// Send injects a message; the destination handler runs when the tail
// arrives. Traffic statistics are charged immediately. When a FaultHook is
// installed it may drop, duplicate, delay, or redirect the message; the
// hook runs once per Send (a duplicated copy is not re-faulted). Send
// returns how many deliveries it queued, that is how many times a handler
// will get the payload: 1, or 0 for a dropped message, and 2 for a
// duplicated one.
func (n *Network) Send(src, dst NodeID, bytes int, payload interface{}) int {
	one := [1]NodeID{dst}
	queued, _ := n.Multicast(src, one[:], bytes, payload, 0, nil)
	return queued
}

// Multicast sends payload from src to every node of dsts, in order. It is
// exactly len(dsts) Sends — the same link reservations, tie-break keys,
// fault-hook calls and traffic, in the same order — with the per-message
// invariants computed once and the traffic charged once.
//
// keep has bit i set for each endpoint i whose deliveries the caller takes
// over (endpoints past 63 have no bit): such a delivery is routed, charged
// and given its key like any other, but instead of being queued it is
// appended to kept, and the returned slice holds them all. Under a
// FaultHook the bit of each copy's final destination decides, after a
// redirect or a duplication. Multicast returns how many deliveries it
// queued, that is how many times a handler will get the payload: a kept
// delivery is not one of them.
func (n *Network) Multicast(src NodeID, dsts []NodeID, bytes int, payload interface{}, keep uint64, kept []Delivery) (int, []Delivery) {
	// f is built here, in a local, so its pointer fields are stack writes.
	// Its fields are assigned one by one: a composite literal would build
	// a temporary and copy it over f on every call.
	a := &n.nodes[src]
	var f fanout
	f.src, f.x, f.y, f.bytes = src, a.x, a.y, bytes
	f.ser = n.serialization(bytes)
	f.flitBytes = uint64(f.ser) * uint64(n.cfg.LinkBytesPerCycle)
	f.payload = payload
	f.sd = n.nodeDom[src]
	f.now = n.eng.Now()
	f.keep, f.kept = keep, kept
	if n.FaultHook != nil {
		for _, d := range dsts {
			n.sendFaulted(&f, d)
		}
	} else {
		n.fan(&f, dsts, 0)
	}
	t := &n.traf[f.sd]
	t.messages += f.messages
	t.bytes += f.flitBytes * f.messages
	t.byteHops += f.flitBytes * f.links
	return f.queued, f.kept
}

// sendFaulted sends one message of a Multicast under the FaultHook, which
// may drop, duplicate, delay, or redirect it.
func (n *Network) sendFaulted(f *fanout, dst NodeID) {
	out := n.FaultHook(f.src, dst, f.bytes, f.payload)
	if out.Drop {
		return
	}
	if out.Redirected {
		dst = out.RedirectTo
	}
	one := [1]NodeID{dst}
	if out.Duplicate {
		n.fan(f, one[:], out.Delay)
	}
	n.fan(f, one[:], out.Delay)
}

// fan sends one message of f to each of dsts, in order, extra cycles
// late: it adds each to f's traffic, reserves its links and queues its
// delivery, or, if the destination's keep bit is set, appends the delivery
// to f.kept. It reads f into locals once and writes its sums back once.
//
// A cross-domain message travels at zero-load latency and reserves no
// links. That is a model choice, not a correctness need: the golden
// results pin it, and full contention on cross-domain routes (which brings
// back the Figure 6 slowdowns) is a separate, re-pinning change.
func (n *Network) fan(f *fanout, dsts []NodeID, extra sim.Cycle) {
	eng, nodes, nodeDom := n.eng, n.nodes, n.nodeDom
	x, y, sd, ser, keep, payload := f.x, f.y, f.sd, f.ser, f.keep, f.payload
	start, inject := f.now+extra, f.now+n.cfg.RouterDelay
	contention := n.cfg.Contention
	kept, queued, links := f.kept, f.queued, f.links
	key := eng.NextKeys(uint64(len(dsts)))
	for _, d := range dsts {
		b := &nodes[d]
		hops := abs(x-b.x) + abs(y-b.y)
		links += uint64(max(hops, 1))
		dd := nodeDom[d]
		var at sim.Cycle
		if dd != sd || !contention || hops == 0 {
			at = start + n.latency(hops, ser)
		} else {
			at = n.walk(x, y, b.x, b.y, inject, ser) + extra
		}
		if keep>>uint(d)&1 != 0 {
			kept = append(kept, Delivery{At: at, Key: key, Dom: dd, Dst: int32(d)})
		} else {
			eng.ScheduleKeyed(at, key, dd, n.deliver, payload, uint64(d))
			queued++
		}
		key++
	}
	f.kept, f.queued, f.links = kept, queued, links
	f.messages += uint64(len(dsts))
}

// walk reserves, in the dense nextFree table, each directed link of the XY
// route from router (x, y) to (bx, by), X moves first, for a message of
// per-link serialization ser whose header leaves the source router's
// injection pipeline at t, and returns the cycle its tail arrives. No
// per-message route is materialized.
func (n *Network) walk(x, y, bx, by int, t, ser sim.Cycle) sim.Cycle {
	hop := n.cfg.LinkDelay + n.cfg.RouterDelay
	lastSer := ser
	// l is the link out of the current router in direction dir; a move
	// east or west shifts it by one router, south or north by one row.
	l := n.linkID(x, y, 0)
	step, dir, moves := 4, dirEast, bx-x
	if moves < 0 {
		step, dir, moves = -4, dirWest, -moves
	}
	for leg := 0; leg < 2; leg++ {
		for ; moves > 0; moves-- {
			i := l | dir
			serL := ser
			if n.degraded != nil {
				if d := n.degraded[i]; d > 1 {
					serL = ser * sim.Cycle(d)
				}
			}
			start := max(t, n.nextFree[i])
			n.nextFree[i] = start + serL
			t = start + hop
			lastSer = serL
			l += step
		}
		step, dir, moves = 4*n.cfg.Width, dirSouth, by-y
		if moves < 0 {
			step, dir, moves = -step, dirNorth, -moves
		}
	}
	return t + lastSer - 1
}

// DegradeLinks marks count randomly chosen directed links as degraded: their
// serialization cost is multiplied by factor (a link-width fault). Links are
// enumerated in a fixed deterministic order and chosen via rng, so identical
// seeds degrade identical links. It returns the number of links degraded.
// Degradation applies to the contention model only (Config.Contention).
func (n *Network) DegradeLinks(count, factor int, rng *sim.Rand) int {
	if count <= 0 || factor <= 1 {
		return 0
	}
	var all []int
	for y := 0; y < n.cfg.Height; y++ {
		for x := 0; x < n.cfg.Width; x++ {
			if x+1 < n.cfg.Width {
				all = append(all, n.linkID(x, y, dirEast))
			}
			if x > 0 {
				all = append(all, n.linkID(x, y, dirWest))
			}
			if y > 0 {
				all = append(all, n.linkID(x, y, dirNorth))
			}
			if y+1 < n.cfg.Height {
				all = append(all, n.linkID(x, y, dirSouth))
			}
		}
	}
	if count > len(all) {
		count = len(all)
	}
	if n.degraded == nil {
		n.degraded = make([]int32, len(n.nextFree))
	}
	for _, i := range rng.Perm(len(all))[:count] {
		n.degraded[all[i]] = int32(factor)
	}
	return count
}
