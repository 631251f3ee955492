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
// one call, to destination sets given as endpoint bit words, with the work
// every unicast shares done once, and hands back the deliveries its
// caller's keep mask takes out of the queue.
package mesh

import (
	"fmt"
	"math/bits"

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
// at (At, Key) in executing domain Dom, at endpoint Dst. Multicast lists
// the kept deliveries it visits in this form, and DerivedDelivery
// recomputes a derived one in it.
type Delivery struct {
	At  sim.Cycle
	Key uint64
	Dom int32
	Dst int32
}

// Words returns the bit words of the endpoint set ids: endpoint i is bit
// i%64 of word i/64, the form Multicast takes its destination sets in.
func Words(ids ...NodeID) []uint64 {
	var w []uint64
	for _, id := range ids {
		for int(id)>>6 >= len(w) {
			w = append(w, 0)
		}
		w[id>>6] |= 1 << (uint(id) & 63)
	}
	return w
}

// Endpoints lists the endpoints of the sets of bit words in send order:
// each set's endpoints ascending, set after set.
func Endpoints(sets ...[]uint64) []NodeID {
	var out []NodeID
	for _, set := range sets {
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				out = append(out, NodeID(wi<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}

// Kept is what a Multicast keeps out of the queue for its caller: every
// delivery to an endpoint in Keep. The caller sets Keep and Derive; the
// call overwrites the rest, reusing List's array.
//
// A kept delivery the network reaches at zero-load latency (Partition's
// tables) is derived when Derive is set and no FaultHook is installed:
// the call neither visits nor lists it, and its (at, key, dom) is a pure
// function of the source, the destination, the send cycle, the call's
// send sets and its first key, which DerivedDelivery recomputes. Every
// other kept delivery is listed.
type Kept struct {
	// Keep has bit i set for each endpoint i whose deliveries the caller
	// takes over (endpoints past 63 have no bit).
	Keep uint64
	// Derive lets the call derive zero-load kept deliveries.
	Derive bool

	// List holds the kept deliveries the call visited, in send order.
	List []Delivery
	// Mask has bit i set for each endpoint i with a kept delivery, and
	// Derived for each one whose delivery was derived.
	Mask, Derived uint64
	// LastAt, LastKey is the latest (at, key) of every kept delivery,
	// listed or derived.
	LastAt  sim.Cycle
	LastKey uint64

	// What DerivedDelivery reads: the source, the send sets (one word
	// each: derivation needs at most 64 endpoints), the send cycle, the
	// call's first key and the per-link serialization.
	src   NodeID
	sets  [2]uint64
	start sim.Cycle
	key   uint64
	ser   sim.Cycle
}

// Count returns how many deliveries k kept, listed and derived.
func (k *Kept) Count() int { return len(k.List) + bits.OnesCount64(k.Derived) }

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

	// zero[src] has bit d set for each endpoint d that a message from src
	// reaches at zero-load latency, and hopClasses[src] groups the
	// endpoints by hop count from src, nearest first: the tables a
	// multicast derives kept deliveries from. Partition builds them when
	// the network has at most 64 endpoints; nil means no derivation.
	zero       []uint64
	hopClasses [][]hopClass

	// route is the scratch a Multicast lists its visited destinations in,
	// with their keys, before it sends to them.
	route []hop
}

// hop is one destination of a Multicast's send sequence, with its key.
type hop struct {
	dst NodeID
	key uint64
}

// hopClass is the set of endpoints at one hop count from a source.
type hopClass struct {
	mask  uint64
	hops  int
	links uint64 // links a message crossing hops hops is charged: one at least
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
	n.buildDeriveTables()
}

// buildDeriveTables builds zero and hopClasses from the partition, or
// leaves them nil on a network of more than 64 endpoints.
func (n *Network) buildDeriveTables() {
	n.zero, n.hopClasses = nil, nil
	if len(n.nodes) > 64 {
		return
	}
	n.zero = make([]uint64, len(n.nodes))
	n.hopClasses = make([][]hopClass, len(n.nodes))
	byHops := make([]uint64, n.cfg.Width+n.cfg.Height-1)
	for src := range n.nodes {
		clear(byHops)
		for d := range n.nodes {
			hops := n.Hops(NodeID(src), NodeID(d))
			byHops[hops] |= 1 << uint(d)
			if n.zeroLoad(n.nodeDom[src], n.nodeDom[d], hops) {
				n.zero[src] |= 1 << uint(d)
			}
		}
		for hops, m := range byHops {
			if m != 0 {
				n.hopClasses[src] = append(n.hopClasses[src], hopClass{mask: m, hops: hops, links: uint64(max(hops, 1))})
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
	keptMask  uint64
	lastAt    sim.Cycle
	lastKey   uint64
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
	if n.FaultHook != nil {
		return n.Multicast(src, nil, nil, dst, bytes, payload, nil)
	}
	// A multicast to dst alone, without the fan-out's set walk.
	a, b := &n.nodes[src], &n.nodes[dst]
	ser := n.serialization(bytes)
	hops := abs(a.x-b.x) + abs(a.y-b.y)
	sd, dd := n.nodeDom[src], n.nodeDom[dst]
	now := n.eng.Now()
	at := now + n.latency(hops, ser)
	if !n.zeroLoad(sd, dd, hops) {
		at = n.walk(a.x, a.y, b.x, b.y, now+n.cfg.RouterDelay, ser)
	}
	n.eng.ScheduleKeyed(at, n.eng.NextKeys(1), dd, n.deliver, payload, uint64(dst))
	t := &n.traf[sd]
	flit := uint64(ser) * uint64(n.cfg.LinkBytesPerCycle)
	t.messages++
	t.bytes += flit
	t.byteHops += flit * uint64(max(hops, 1))
	return 1
}

// zeroLoad reports whether a message from domain sd to an endpoint in domain
// dd, hops hops away, travels at zero-load latency, reserving no links: a
// cross-domain one, any one when contention is off, and one that stays on
// its router. Any other walks its route, reserving each link (walk). The
// cross-domain rule is a model choice, not a correctness need: the golden
// results pin it, and full contention on cross-domain routes (which brings
// back the Figure 6 slowdowns) is a separate, re-pinning change.
func (n *Network) zeroLoad(sd, dd int32, hops int) bool {
	return dd != sd || !n.cfg.Contention || hops == 0
}

// Multicast sends payload from src to every endpoint of first, then to
// every endpoint of second, each set in ascending endpoint order (endpoint
// i is bit i%64 of word i/64; the two sets must not share an endpoint),
// and then to last unless last is negative. It is exactly that sequence of
// Sends — the same link reservations, tie-break keys, fault-hook calls and
// traffic, in the same order — with the per-message invariants computed
// once and the traffic charged once.
//
// With k non-nil, a delivery to an endpoint in k.Keep is routed, charged
// and given its key like any other, but kept out of the queue and recorded
// in k instead (Kept). Under a FaultHook the bit of each copy's final
// destination decides, after a redirect or a duplication. Multicast
// returns how many deliveries it queued, that is how many times a handler
// will get the payload: a kept delivery is not one of them.
func (n *Network) Multicast(src NodeID, first, second []uint64, last NodeID, bytes int, payload interface{}, k *Kept) int {
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
	if k != nil {
		f.keep, f.kept = k.Keep, k.List[:0]
		k.Derived = 0
	}
	if n.FaultHook != nil {
		n.sendSetFaulted(&f, first)
		n.sendSetFaulted(&f, second)
		if last >= 0 {
			n.sendFaulted(&f, last)
		}
	} else {
		n1 := popcount(first)
		total := n1 + popcount(second)
		if last >= 0 {
			total++
		}
		key := n.eng.NextKeys(total)
		var derived uint64
		if k != nil && k.Derive && n.zero != nil {
			s1, s2 := word0(first), word0(second)
			if derived = f.keep & (s1 | s2) & n.zero[src]; derived != 0 {
				n.derive(&f, k, derived, s1, s2, key)
			}
		}
		route := appendSet(n.route[:0], first, derived, key)
		if len(second) > 0 {
			route = appendSet(route, second, derived, key+n1)
		}
		if last >= 0 {
			route = append(route, hop{last, key + total - 1})
		}
		n.route = route
		n.fan(&f, route, 0)
	}
	if k != nil {
		k.List, k.Mask, k.LastAt, k.LastKey = f.kept, f.keptMask, f.lastAt, f.lastKey
	}
	t := &n.traf[f.sd]
	t.messages += f.messages
	t.bytes += f.flitBytes * f.messages
	t.byteHops += f.flitBytes * f.links
	return f.queued
}

// popcount returns the number of endpoints in the set w.
func popcount(w []uint64) uint64 {
	var c int
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return uint64(c)
}

// word0 returns the first word of the set w, 0 for an empty one.
func word0(w []uint64) uint64 {
	if len(w) == 0 {
		return 0
	}
	return w[0]
}

// derive records in k the kept deliveries d of f's multicast, those of
// its one-word send sets s1 and s2, whose first key is key, that the
// network reaches at zero-load latency. It charges their messages and
// links by hop class, without visiting one, and takes their latest
// (at, key) from the farthest class: arrival grows with the hop count, and
// the class's last-sent endpoint has the largest key.
func (n *Network) derive(f *fanout, k *Kept, d, s1, s2, key uint64) {
	classes := n.hopClasses[f.src]
	var links uint64
	for _, c := range classes {
		links += uint64(bits.OnesCount64(d&c.mask)) * c.links
	}
	var far uint64
	farHops := 0
	for i := len(classes) - 1; far == 0; i-- {
		far, farHops = d&classes[i].mask, classes[i].hops
	}
	f.links += links
	f.messages += uint64(bits.OnesCount64(d))
	k.Derived, k.src, k.sets, k.start, k.key, k.ser = d, f.src, [2]uint64{s1, s2}, f.now, key, f.ser
	// far's last-sent endpoint is its highest in s2, or with none there,
	// its highest in s1.
	last := far & s2
	if last == 0 {
		last = far
	}
	f.keptMask |= d
	f.lastAt = f.now + n.latency(farHops, f.ser)
	f.lastKey = key + rank(s1, s2, 1<<uint(63-bits.LeadingZeros64(last)))
}

// rank returns the place in send order of the endpoint bit among the send
// sets s1 and s2: s1's endpoints ascending, then s2's.
func rank(s1, s2, bit uint64) uint64 {
	if s1&bit != 0 {
		return uint64(bits.OnesCount64(s1 & (bit - 1)))
	}
	return uint64(bits.OnesCount64(s1) + bits.OnesCount64(s2&(bit-1)))
}

// DerivedDelivery recomputes the delivery to endpoint dst that the last
// Multicast into k derived (a bit of k.Derived): zero-load latency from
// the send cycle, the call's first key plus dst's place in send order,
// and dst's domain.
func (n *Network) DerivedDelivery(k *Kept, dst NodeID) Delivery {
	return Delivery{
		At:  k.start + n.latency(n.Hops(k.src, dst), k.ser),
		Key: k.key + rank(k.sets[0], k.sets[1], 1<<uint(dst)),
		Dom: n.nodeDom[dst],
		Dst: int32(dst),
	}
}

// sendSetFaulted sends one message of a Multicast under the FaultHook to
// each endpoint of set, in ascending order.
func (n *Network) sendSetFaulted(f *fanout, set []uint64) {
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			n.sendFaulted(f, NodeID(wi<<6|bits.TrailingZeros64(w)))
		}
	}
}

// sendFaulted sends one message of a Multicast under the FaultHook, which
// may drop, duplicate, delay, or redirect it. Each copy draws its own key.
func (n *Network) sendFaulted(f *fanout, dst NodeID) {
	out := n.FaultHook(f.src, dst, f.bytes, f.payload)
	if out.Drop {
		return
	}
	if out.Redirected {
		dst = out.RedirectTo
	}
	if out.Duplicate {
		one := [1]hop{{dst, n.eng.NextKeys(1)}}
		n.fan(f, one[:], out.Delay)
	}
	one := [1]hop{{dst, n.eng.NextKeys(1)}}
	n.fan(f, one[:], out.Delay)
}

// appendSet appends to route each endpoint of set, the bit words of a
// send set, in ascending order, except those in skip (derived; word 0
// only), with its key: key plus its place in set, skipped ones counted.
func appendSet(route []hop, set []uint64, skip, key uint64) []hop {
	for wi, w := range set {
		send := w
		if wi == 0 {
			send &^= skip
		}
		for ; send != 0; send &= send - 1 {
			bit := uint(bits.TrailingZeros64(send))
			route = append(route, hop{NodeID(wi<<6 | int(bit)), key + uint64(bits.OnesCount64(w&(1<<bit-1)))})
		}
		key += uint64(bits.OnesCount64(w))
	}
	return route
}

// fan sends one message of f to each destination of route, in order,
// extra cycles late, under the destination's key: it adds each to f's
// traffic, reserves its links (zeroLoad) and queues its delivery, or, if
// the destination's keep bit is set, appends the delivery to f.kept. It
// reads f into locals once and writes its sums back once.
func (n *Network) fan(f *fanout, route []hop, extra sim.Cycle) {
	eng, nodes, nodeDom := n.eng, n.nodes, n.nodeDom
	x, y, sd, ser, keep, payload := f.x, f.y, f.sd, f.ser, f.keep, f.payload
	start, inject := f.now+extra, f.now+n.cfg.RouterDelay
	kept, keptMask, lastAt, lastKey := f.kept, f.keptMask, f.lastAt, f.lastKey
	queued, links := f.queued, f.links
	for _, h := range route {
		d := h.dst
		b := &nodes[d]
		hops := abs(x-b.x) + abs(y-b.y)
		links += uint64(max(hops, 1))
		dd := nodeDom[d]
		at := start + n.latency(hops, ser)
		if !n.zeroLoad(sd, dd, hops) {
			at = n.walk(x, y, b.x, b.y, inject, ser) + extra
		}
		if keep>>uint(d)&1 != 0 {
			kept = append(kept, Delivery{At: at, Key: h.key, Dom: dd, Dst: int32(d)})
			keptMask |= 1 << uint(d)
			if at > lastAt || at == lastAt && h.key > lastKey {
				lastAt, lastKey = at, h.key
			}
		} else {
			eng.ScheduleKeyed(at, h.key, dd, n.deliver, payload, uint64(d))
			queued++
		}
	}
	f.kept, f.keptMask, f.lastAt, f.lastKey = kept, keptMask, lastAt, lastKey
	f.queued, f.links = queued, links
	f.messages += uint64(len(route))
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
