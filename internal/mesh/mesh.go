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
// one call, with the work every unicast shares done once.
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
	elide   Elider
}

// Elider lets an endpoint take a delivery out of the event queue at send
// time. The network has already reserved the links, charged the traffic
// and drawn the delivery's tie-break key; the elider gets the delivery as
// it would be queued — arrival cycle, key, executing domain, payload — and
// returns true if it keeps the delivery itself (and owes the network
// nothing more), false to have it queued as usual. An elider that keeps a
// delivery must not keep the payload past its call: Send does not count
// the delivery, so the sender may reuse the payload once the deliveries
// it counted are handled.
type Elider func(at sim.Cycle, key uint64, dom int32, payload interface{}) bool

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
	// otherwise.
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
	nLinks := cfg.Width * cfg.Height * 4
	n := &Network{
		cfg: cfg, eng: eng,
		nextFree: make([]sim.Cycle, nLinks),
		degraded: make([]int32, nLinks),
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

// SetElider installs an endpoint's elider (nil removes it).
func (n *Network) SetElider(id NodeID, el Elider) { n.nodes[id].elide = el }

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

// fanout is what every message of one Multicast shares: computed once per
// call, not once per destination.
type fanout struct {
	src       NodeID
	x, y      int // source router
	bytes     int
	ser       sim.Cycle // per-link serialization
	flitBytes uint64
	payload   interface{}
	now       sim.Cycle
	sd        int32        // source domain
	traf      *trafficSlot // source domain's counters
}

// Send injects a message; the destination handler runs when the tail
// arrives. Traffic statistics are charged immediately. When a FaultHook is
// installed it may drop, duplicate, delay, or redirect the message; the
// hook runs once per Send (a duplicated copy is not re-faulted). Send
// returns how many deliveries it queued, that is how many times a handler
// will get the payload: 1, or 0 for a dropped message or one an elider
// kept, and 2 for a duplicated one.
func (n *Network) Send(src, dst NodeID, bytes int, payload interface{}) int {
	one := [1]NodeID{dst}
	return n.Multicast(src, one[:], bytes, payload)
}

// Multicast sends payload from src to every node of dsts, in order. It is
// exactly len(dsts) Sends — the same link reservations, tie-break keys,
// elider calls, fault-hook calls and traffic charges, in the same order —
// with the per-message invariants computed once. It returns the sum of
// what those Sends would return: the number of deliveries queued.
func (n *Network) Multicast(src NodeID, dsts []NodeID, bytes int, payload interface{}) int {
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
	f.traf = &n.traf[f.sd]
	f.now = n.eng.Now()
	queued := 0
	if n.FaultHook != nil {
		for _, d := range dsts {
			queued += n.sendFaulted(&f, d)
		}
		return queued
	}
	for _, d := range dsts {
		queued += n.transmit(&f, d, 0)
	}
	return queued
}

// sendFaulted sends one message of a Multicast under the FaultHook, which
// may drop, duplicate, delay, or redirect it, and returns how many
// deliveries it queued.
func (n *Network) sendFaulted(f *fanout, dst NodeID) int {
	out := n.FaultHook(f.src, dst, f.bytes, f.payload)
	if out.Drop {
		return 0
	}
	if out.Redirected {
		dst = out.RedirectTo
	}
	queued := 0
	if out.Duplicate {
		queued = n.transmit(f, dst, out.Delay)
	}
	return queued + n.transmit(f, dst, out.Delay)
}

// transmit performs the actual routing, accounting, and delivery of one
// message to dst, extra cycles late. It returns 1 if it queued the
// delivery, 0 if the destination's elider kept it.
func (n *Network) transmit(f *fanout, dst NodeID, extra sim.Cycle) int {
	b := &n.nodes[dst]
	hops := abs(f.x-b.x) + abs(f.y-b.y)
	t := f.traf
	t.messages++
	t.bytes += f.flitBytes
	t.byteHops += f.flitBytes * uint64(maxInt(hops, 1))
	dd := n.nodeDom[dst]
	crossDom := f.sd != dd

	// A cross-domain message travels at zero-load latency and reserves no
	// links. That is a model choice, not a correctness need: the golden
	// results pin it, and full contention on cross-domain routes (which
	// brings back the Figure 6 slowdowns) is a separate, re-pinning change.
	var arrive sim.Cycle
	if crossDom || !n.cfg.Contention || hops == 0 {
		arrive = f.now + n.latency(hops, f.ser)
	} else {
		// Walk the XY route inline (X moves first, then Y), reserving each
		// directed link in the dense nextFree table — no per-message route
		// slice is materialized.
		lastSer := f.ser
		t := f.now + n.cfg.RouterDelay // source injection pipeline
		x, y := f.x, f.y
		for x != b.x || y != b.y {
			var dir int
			switch {
			case b.x > x:
				dir = dirEast
			case b.x < x:
				dir = dirWest
			case b.y > y:
				dir = dirSouth
			default:
				dir = dirNorth
			}
			l := n.linkID(x, y, dir)
			serL := f.ser
			if d := n.degraded[l]; d > 1 {
				serL = f.ser * sim.Cycle(d)
			}
			start := t
			if nf := n.nextFree[l]; nf > start {
				start = nf
			}
			n.nextFree[l] = start + serL
			t = start + n.cfg.LinkDelay + n.cfg.RouterDelay
			lastSer = serL
			switch dir {
			case dirEast:
				x++
			case dirWest:
				x--
			case dirSouth:
				y++
			default:
				y--
			}
		}
		arrive = t + lastSer - 1
	}
	arrive += extra
	eng := n.eng
	if el := b.elide; el != nil {
		key := eng.NextKey()
		if el(arrive, key, dd, f.payload) {
			return 0
		}
		eng.ScheduleKeyed(arrive, key, dd, n.deliver, f.payload, uint64(dst))
		return 1
	}
	eng.ScheduleFnAtDom(arrive, dd, n.deliver, f.payload, uint64(dst))
	return 1
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
	for _, i := range rng.Perm(len(all))[:count] {
		n.degraded[all[i]] = int32(factor)
	}
	return count
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
