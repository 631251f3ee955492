package token

import (
	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
)

// persistSave is one flattened persistent-table entry.
type persistSave struct {
	addr   mem.BlockAddr
	holder mesh.NodeID
}

// CtrlSnap is one checkpoint of a cache controller (optimistic shard
// engine): the outstanding transaction (a value copy — its completion is a
// prebound handler plus an argument pointer, and the owning layer's own
// snapshot restores the state that argument points to), the TID sequence,
// the counters, the RNG state, and the persistent-request table.
type CtrlSnap struct {
	txn     Txn
	cur     bool // cur == &c.txn (cores are blocking: one backing Txn)
	tidSeq  uint64
	stats   Stats
	rng     sim.Rand
	persist []persistSave
}

// Save copies the controller's mutable state into s.
func (c *CacheCtrl) Save(s *CtrlSnap) {
	s.txn = c.txn
	s.cur = c.cur != nil
	s.tidSeq = c.tidSeq
	s.stats = c.Stats
	s.rng = *c.Rng
	s.persist = s.persist[:0]
	for a, h := range c.persistent { //lint:ordered flattened entries are rebuilt into a map on Restore; the table is only ever read by key
		s.persist = append(s.persist, persistSave{addr: a, holder: h})
	}
}

// Restore rewinds the controller to the state captured by Save. The
// persistent table is rebuilt from the flattened entries; map iteration
// order in Save is irrelevant because the table is only ever read by key.
func (c *CacheCtrl) Restore(s *CtrlSnap) {
	c.txn = s.txn
	if s.cur {
		c.cur = &c.txn
	} else {
		c.cur = nil
	}
	c.tidSeq = s.tidSeq
	c.Stats = s.stats
	*c.Rng = s.rng
	clear(c.persistent)
	for _, p := range s.persist {
		c.persistent[p.addr] = p.holder
	}
}
