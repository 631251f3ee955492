// Package timewarp is a lint fixture: speculative state of the kind an
// optimistic (Time Warp) engine keeps, under the domainown confinement
// proof. The simulator's engine is conservative and keeps no such state;
// the fixture pins that the analyzer would confine it anyway. Checkpoint
// buffers and anti-message outboxes are domain-owned exactly like live
// state — a rollback restores a snapshot into the owning domain, so a
// cross-domain checkpoint write poisons a future Restore silently. The
// seeded handler (marked SEED) writes another shard's checkpoint slot, an
// owned value nested in a foreign domain's array field; domainown must flag
// it even though the write is pure instance-state mutation that no other
// check can see.
package timewarp

// handlerFn mirrors sim.HandlerFn.
type handlerFn func(p interface{}, u uint64)

// engine mimics the sharded engine's cross-domain deposit API.
type engine struct{ now uint64 }

func (e *engine) ScheduleFnAtDom(at uint64, dom int, fn handlerFn, p interface{}, u uint64) {}

// snap is one flat-slice checkpoint of a domain's mutable state.
//
//vsnoop:owned
type snap struct {
	fired uint64
	live  []int
}

// antiMsg is one held cross-shard send awaiting GVT commit (release) or
// rollback (annihilation).
type antiMsg struct {
	at  uint64
	dst int
}

// domain carries live state plus its speculative side: the checkpoint
// ring and the anti-message outbox, owned by the same domain as the live
// state they shadow.
//
//vsnoop:owned
type domain struct {
	idx    int //vsnoop:owned const
	live   int
	snaps  [4]snap
	outbox []antiMsg
}

type machine struct {
	eng  *engine
	doms []*domain //vsnoop:owned table
	fns  []handlerFn
}

// prebind mirrors machine construction: handler-shaped method values root
// the domainown provenance pass.
func (m *machine) prebind() {
	m.fns = []handlerFn{
		m.handleSave, m.handleRollback, m.handleCommitDeposit,
		m.handleForeignSave, m.handleForeignAnti,
	}
}

// handleSave checkpoints the executing domain into its own ring: the
// flat-slice copy stays inside the owning domain. No findings.
//
//vsnoop:handler dom=1
func (m *machine) handleSave(p interface{}, u uint64) {
	d := m.doms[1]
	d.snaps[0].fired = uint64(d.live)
	d.snaps[0].live = append(d.snaps[0].live[:0], d.live)
}

// handleRollback restores the domain's own snapshot and annihilates its
// own outbox. No findings.
//
//vsnoop:handler dom=1
func (m *machine) handleRollback(p interface{}, u uint64) {
	d := m.doms[1]
	d.live = int(d.snaps[0].fired)
	d.outbox = d.outbox[:0]
}

// handleCommitDeposit releases a held send the sanctioned way: the
// destination comes from the message, and the payload crosses domains only
// through the deposit API. No findings.
//
//vsnoop:handler dom=1
func (m *machine) handleCommitDeposit(p interface{}, u uint64) {
	d := m.doms[1]
	for _, am := range d.outbox {
		m.eng.ScheduleFnAtDom(am.at, am.dst, m.arrive, nil, u)
	}
	d.outbox = d.outbox[:0]
}

// arrive runs in the destination domain on the deposited payload. No
// findings.
func (m *machine) arrive(p interface{}, u uint64) {}

// handleForeignSave is the seeded cross-domain checkpoint write: domain 1
// code capturing its view of the world into domain 0's checkpoint ring.
// Domain 0's next Restore would replay domain 1's speculation as if it
// were committed state.
//
//vsnoop:handler dom=1
func (m *machine) handleForeignSave(p interface{}, u uint64) {
	m.doms[0].snaps[0].fired = u // SEED // want "foreign domain-owned value" "foreign domain-owned value"
}

// handleForeignAnti queues an anti-message directly into another shard's
// outbox instead of depositing it — racing the owner's commit walk.
//
//vsnoop:handler dom=1
func (m *machine) handleForeignAnti(p interface{}, u uint64) {
	d := m.doms[2]
	d.outbox = append(d.outbox, antiMsg{at: u, dst: 1}) // want "foreign domain-owned value" "foreign domain-owned value"
}

var _ = (*machine).prebind
