package token

// Multicast runs send, the mesh calls of one multicast of snoop m by
// requester req, with req's parking record open: what issueAttempt does
// around mesh.Network.Multicast.
func (t *ParkTable) Multicast(req int, m *Msg, send func()) {
	t.begin(req, m)
	send()
	t.end(req)
}
