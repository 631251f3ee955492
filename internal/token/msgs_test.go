package token_test

import (
	"slices"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// TestMsgsNeverReuseSlots carves messages and destination copies across
// several slab chunks and checks that no slot is handed out twice and that
// nothing written later reaches an earlier message or copy.
func TestMsgsNeverReuseSlots(t *testing.T) {
	const n = 1000 // ~4 Msg chunks, ~3 node chunks (3 nodes per copy)
	var s token.Msgs
	msgs := make([]*token.Msg, n)
	copies := make([][]mesh.NodeID, n)
	seen := make(map[*token.Msg]bool, n)
	buf := make([]mesh.NodeID, 3)
	for i := range msgs {
		m := s.New(token.Msg{Kind: token.MsgGetS, Addr: mem.BlockAddr(i), TID: uint64(i)})
		if seen[m] {
			t.Fatalf("message %d reuses a slot", i)
		}
		seen[m] = true
		msgs[i] = m
		for j := range buf {
			buf[j] = mesh.NodeID(3*i + j)
		}
		copies[i] = s.Nodes(buf)
		for j := range buf {
			buf[j] = -1 // the caller reuses its buffer
		}
	}
	// A set longer than a node chunk gets a chunk of its own.
	big := make([]mesh.NodeID, 1500)
	for j := range big {
		big[j] = mesh.NodeID(j)
	}
	bigCopy := s.Nodes(big)
	big[0] = -1
	if bigCopy[0] != 0 || len(bigCopy) != len(big) {
		t.Fatalf("oversized copy = len %d, first %d", len(bigCopy), bigCopy[0])
	}
	for i, m := range msgs {
		if m.Kind != token.MsgGetS || m.Addr != mem.BlockAddr(i) || m.TID != uint64(i) {
			t.Fatalf("message %d overwritten: %+v", i, *m)
		}
		want := []mesh.NodeID{mesh.NodeID(3 * i), mesh.NodeID(3*i + 1), mesh.NodeID(3*i + 2)}
		if !slices.Equal(copies[i], want) {
			t.Fatalf("copy %d = %v, want %v", i, copies[i], want)
		}
		if cap(copies[i]) != 3 {
			t.Fatalf("copy %d has capacity %d: an append could reach the next copy", i, cap(copies[i]))
		}
	}
}

// cyclingRouter writes a different destination set into buf on every call
// and remembers what it routed and which buffers it was handed.
type cyclingRouter struct {
	sets   [][]mesh.NodeID
	calls  int
	routed [][]mesh.NodeID
	bufs   []*mesh.NodeID
}

func (r *cyclingRouter) Route(_ token.RouteInfo, buf []mesh.NodeID) []mesh.NodeID {
	out := append(buf[:0], r.sets[r.calls%len(r.sets)]...)
	r.calls++
	r.routed = append(r.routed, slices.Clone(out))
	r.bufs = append(r.bufs, &buf[:1][0])
	return out
}

// oracleLog records, on arrival, the destination set each RO-shared GetS
// carries to the memory controller.
type oracleLog struct{ seen [][]mesh.NodeID }

func (o *oracleLog) ROProviderAmong(_ mem.BlockAddr, cores []mesh.NodeID) bool {
	o.seen = append(o.seen, slices.Clone(cores))
	return false
}

// TestRetryKeepsRoutedDests delays a transaction's first RO-shared request
// to memory past its retry, so the retry routes into the same buffer before
// the first request arrives. The memory controller's oracle must still see
// each attempt's own destination set.
func TestRetryKeepsRoutedDests(t *testing.T) {
	r := &cyclingRouter{}
	h := newHarness(t, 4, r)
	r.sets = [][]mesh.NodeID{
		{h.ctrls[1].Node},
		{h.ctrls[2].Node, h.ctrls[3].Node},
	}
	o := &oracleLog{}
	h.mc.Oracle = o
	h.net.FaultHook = func(_, dst mesh.NodeID, _ int, payload interface{}) mesh.FaultOutcome {
		if m := payload.(*token.Msg); dst == h.mc.Node && m.Kind == token.MsgGetS && m.TID == 1 {
			return mesh.FaultOutcome{Delay: 4 * h.p.TimeoutBase}
		}
		return mesh.FaultOutcome{}
	}
	done := false
	h.ctrls[0].Start(100, 1, mem.PageROShared, false, call, func() { done = true })
	h.run()
	if !done {
		t.Fatal("read never completed")
	}
	if r.calls != 2 || h.ctrls[0].Stats.Retries != 1 {
		t.Fatalf("%d routes, %d retries; want 2 and 1", r.calls, h.ctrls[0].Stats.Retries)
	}
	if r.bufs[0] != r.bufs[1] {
		t.Fatal("the retry was not routed into the first attempt's buffer")
	}
	// The retry arrives first; the delayed first attempt arrives after the
	// retry overwrote the buffer.
	want := [][]mesh.NodeID{r.routed[1], r.routed[0]}
	if len(o.seen) != len(want) {
		t.Fatalf("oracle consulted %d times, want %d", len(o.seen), len(want))
	}
	for i := range want {
		if !slices.Equal(o.seen[i], want[i]) {
			t.Fatalf("arrival %d carried %v, want %v", i, o.seen[i], want[i])
		}
	}
}
