// Package domainown is a lint fixture: the //vsnoop:owned annotation
// grammar and the confinement proofs over it. A three-domain machine mimics
// the partitioned engine — an ownership table of per-domain state, const
// identity fields, a deposit API — and its handlers exercise both sides of
// the invariant: self-indexed access and deposited payloads are clean,
// while foreign constant indexes, table enumeration, alias chains through
// locals, package-level owned state, and leaks into ordinary calls are
// findings.
//
// The handleForeignWrite seed (marked SEED) is also the proof obligation
// for the analyzer split: it mutates instance state only — no map range,
// no ambient input, no package-level variable, nothing a -race run of one
// machine would see — so only domainown can flag it. The
// TestOnlyDomainOwnSeesSeed test pins exactly that.
package domainown

// handlerFn mirrors sim.HandlerFn.
type handlerFn func(p interface{}, u uint64)

// engine mimics the sharded engine's cross-domain deposit API.
type engine struct{ now uint64 }

func (e *engine) ScheduleFnAtDom(at uint64, dom int, fn handlerFn, p interface{}, u uint64) {}

// filter is domain-owned leaf state, reached through a domain.
//
//vsnoop:owned
type filter struct{ hits int }

// domain is the per-domain slice of the world.
//
//vsnoop:owned
type domain struct {
	idx  int //vsnoop:owned const
	live int
	flt  *filter
}

type machine struct {
	eng  *engine
	doms []*domain //vsnoop:owned table
	fns  []handlerFn
}

// sentinel is package-level owned state: foreign to every handler.
var sentinel filter

// prebind mirrors machine construction: the method values are handler
// shaped, which is what roots them for the domainown walk.
func (m *machine) prebind() {
	m.fns = []handlerFn{
		m.handleSelf, m.handleForeignWrite, m.handleEnumerate,
		m.handleAlias, m.handleTableStore, m.handleLeak,
		m.handleDeposit, touchGlobal,
	}
}

// handleSelf touches only the executing domain's slice of the table:
// constant indexes equal to the declared domain prove SELF. No findings.
//
//vsnoop:handler dom=1
func (m *machine) handleSelf(p interface{}, u uint64) {
	m.doms[1].live++
	m.doms[1].flt.hits++
}

// handleForeignWrite is the seeded cross-domain write: domain 1 code
// reaching into domain 0's state through the ownership table.
//
//vsnoop:handler dom=1
func (m *machine) handleForeignWrite(p interface{}, u uint64) {
	m.doms[0].live++ // SEED // want "writes field live of a foreign domain-owned value"
}

// handleEnumerate ranges over the ownership table; every element it binds
// is foreign (the enumeration covers all domains).
//
//vsnoop:handler dom=1
func (m *machine) handleEnumerate(p interface{}, u uint64) {
	for _, d := range m.doms {
		d.live = 0 // want "writes field live of a foreign domain-owned value"
	}
}

// handleAlias launders the foreign element through two locals; the
// flow-sensitive provenance follows it.
//
//vsnoop:handler dom=1
func (m *machine) handleAlias(p interface{}, u uint64) {
	d := m.doms[2]
	q := d
	q.live++ // want "writes field live of a foreign domain-owned value"
}

// handleTableStore replaces a foreign domain's slot outright.
//
//vsnoop:handler dom=1
func (m *machine) handleTableStore(p interface{}, u uint64) {
	m.doms[0] = nil // want "stores into an ownership table at a foreign index"
}

// handleLeak smuggles owned state into ordinary calls.
//
//vsnoop:handler dom=1
func (m *machine) handleLeak(p interface{}, u uint64) {
	inspect(m.doms[0]) // want "passes a foreign domain-owned value to a call"
	scanAll(m.doms)    // want "passes an ownership table to a call"
}

func inspect(d *domain)    {}
func scanAll(ds []*domain) {}

// handleDeposit is the sanctioned transfer: reading the const identity
// field of a foreign value to compute the destination, then handing the
// value whole to ScheduleFnAtDom. No findings.
//
//vsnoop:handler dom=1
func (m *machine) handleDeposit(p interface{}, u uint64) {
	v := m.doms[0]
	dst := v.idx
	m.eng.ScheduleFnAtDom(m.eng.now+1, dst, m.arrive, v, u)
}

// arrive runs in the destination domain; the deposited payload is owned by
// the receiving domain by the deposit contract. No findings.
func (m *machine) arrive(p interface{}, u uint64) {
	d := p.(*domain)
	d.live++
}

// touchGlobal writes package-level owned state: foreign to any domain.
//
//vsnoop:handler dom=1
func touchGlobal(p interface{}, u uint64) {
	sentinel.hits++ // want "writes field hits of a foreign domain-owned value"
}

// wire deposits a literal into a constant destination domain: the literal
// is rooted AT that domain, so its self-index is clean and its foreign
// index is not.
func (m *machine) wire() {
	m.eng.ScheduleFnAtDom(0, 2, func(p interface{}, u uint64) {
		m.doms[2].live++
		m.doms[1].live = 7 // want "writes field live of a foreign domain-owned value"
	}, nil, 0)
}

// wireLocal binds the literal to a local first; the def-use chain carries
// the deposit domain back to it.
func (m *machine) wireLocal() {
	fn := func(p interface{}, u uint64) {
		m.doms[0].live = 9 // want "writes field live of a foreign domain-owned value"
	}
	m.eng.ScheduleFnAtDom(0, 2, fn, nil, 0)
}

var (
	_ = (*machine).prebind
	_ = (*machine).wire
	_ = (*machine).wireLocal
)
