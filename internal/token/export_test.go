package token

import "vsnoop/internal/mesh"

// Multicast is issueAttempt's multicast of snoop m from c to dests, with
// parking on: it returns how many deliveries it queued and the ones it
// parked, as c's record holds them.
func (c *CacheCtrl) Multicast(dests []mesh.NodeID, m *Msg) (queued int, parked []mesh.Delivery) {
	return c.multicast(dests, m)
}
