// Package parttransfer is a lint fixture: the cross-domain ownership
// transfer patterns of the partitioned machine — prebound
// depart/arrive/ack handlers, package-level delta appliers, domain-local
// overlay state. Handlers here are never passed to a scheduler call; they
// are prebound method values of sim.HandlerFn shape, which is how the real
// machine wires its transfer pipeline. The statically visible shortcut such
// code must not take is an order-dependent overlay walk (maprange); the
// concurrency shortcuts — a goroutine hand-off, a package-level counter, an
// ack channel — are caught at run time by go test -race over concurrent
// sweeps, and a cross-domain effect applied without its horizon delay by
// the pinned statistics digests.
package parttransfer

// handlerFn mirrors sim.HandlerFn.
type handlerFn func(p interface{}, u uint64)

// engine mimics the sharded engine's cross-domain deposit API: the only
// legal way for transfer code to touch another domain.
type engine struct{ now uint64 }

func (e *engine) ScheduleFnAtDom(at uint64, dom int, fn handlerFn, p interface{}, u uint64) {}

type domain struct {
	idx  int
	live int
	cow  map[uint64]uint64
}

type vcpu struct {
	dom  *domain
	core int
}

type machine struct {
	eng      *engine
	crossHor []uint64
	departFn handlerFn
	arriveFn handlerFn
	ackFn    handlerFn
}

// prebind mirrors machine construction: method values of handler shape are
// assigned once, with no scheduler call in sight.
func (m *machine) prebind() {
	m.departFn = m.handleDepart
	m.arriveFn = m.handleArrive
	m.ackFn = m.handleAck
}

// handleDepart is the good citizen: instance state plus a lookahead-delayed
// re-deposit into the destination domain, nothing else. No findings.
func (m *machine) handleDepart(p interface{}, u uint64) {
	v := p.(*vcpu)
	v.dom.live--
	m.eng.ScheduleFnAtDom(m.eng.now+m.crossHor[v.dom.idx], int(u), m.arriveFn, v, u)
}

// handleArrive rebuilds the destination's overlay in place.
func (m *machine) handleArrive(p interface{}, u uint64) {
	v := p.(*vcpu)
	v.core = int(u)
	rebuildOverlay(v.dom)
}

// handleAck retires the move on instance state only.
func (m *machine) handleAck(p interface{}, u uint64) {
	v := p.(*vcpu)
	v.dom.live++
}

// rebuildOverlay runs inside a handler, and the fixture package is
// sim-critical, so the map iteration is flagged by maprange even though the
// rewrite happens to be idempotent.
func rebuildOverlay(d *domain) {
	for gp, pr := range d.cow { // want "iteration over map d.cow"
		d.cow[gp] = pr
	}
}

// wire shows a handler literal of the right shape: its overlay walk is
// flagged like any other.
func (m *machine) wire() {
	m.prebind()
	var drain handlerFn = func(p interface{}, u uint64) {
		d := p.(*domain)
		for _, pr := range d.cow { // want "iteration over map d.cow"
			d.live += int(pr & 1)
		}
	}
	_ = drain
}

var _ = (*machine).wire
