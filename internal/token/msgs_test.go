package token_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/token"
)

// TestMsgsReuseReleasedSlots checks the slab's hold rule: a slot that is
// still held is never handed out again, however many messages are carved
// after it, and a released one is, most recent first. A slot's Dests is a
// copy in the slot's own buffer, which the slot keeps when it is reused.
func TestMsgsReuseReleasedSlots(t *testing.T) {
	const n = 1000 // ~16 chunks
	var s token.Msgs
	msgs := make([]*token.Msg, n)
	seen := make(map[*token.Msg]bool, n)
	buf := make([]uint64, 3)
	for i := range msgs {
		for j := range buf {
			buf[j] = uint64(3*i + j)
		}
		m := s.New(token.Msg{Kind: token.MsgGetS, Addr: mem.BlockAddr(i), TID: uint64(i), Dests: buf})
		if seen[m] {
			t.Fatalf("message %d reuses a held slot", i)
		}
		seen[m] = true
		msgs[i] = m
		for j := range buf {
			buf[j] = ^uint64(0) // the router reuses its words
		}
	}
	if s.Held() != n {
		t.Fatalf("%d slots held, want %d", s.Held(), n)
	}
	for i, m := range msgs {
		want := []uint64{uint64(3 * i), uint64(3*i + 1), uint64(3*i + 2)}
		if m.Kind != token.MsgGetS || m.Addr != mem.BlockAddr(i) || m.TID != uint64(i) || !slices.Equal(m.Dests, want) {
			t.Fatalf("message %d overwritten: %+v", i, *m)
		}
	}

	// Sent(n) swaps the sender's hold for n delivery holds: the slot is
	// freed by the last of them, and not before.
	a, b := msgs[10], msgs[20]
	a.Sent(2)
	a.Release()
	if got := s.New(token.Msg{Kind: token.MsgData}); got == a || got == b {
		t.Fatal("a slot with a delivery still holding it was handed out again")
	}
	a.Release()
	b.Sent(0) // a dropped send: no delivery holds it
	if s.Held() != n-1 {
		t.Fatalf("%d slots held after two releases, want %d", s.Held(), n-1)
	}
	// LIFO: the most recently freed slot comes back first, with its own
	// Dests buffer.
	dests := []uint64{7, 8}
	if got := s.New(token.Msg{Kind: token.MsgGetS, Dests: dests}); got != b {
		t.Fatal("the most recently released slot was not reused first")
	} else if dests[0] = 0; !slices.Equal(got.Dests, []uint64{7, 8}) || &got.Dests[0] != &msgs[20].Dests[0] {
		t.Fatalf("reused slot's Dests = %v, not a copy in its own buffer", got.Dests)
	}
	if got := s.New(token.Msg{Kind: token.MsgTokens}); got != a || len(got.Dests) != 0 {
		t.Fatalf("second reuse = %p with %d dests, want the first released slot %p with none", got, len(got.Dests), a)
	}

	// A Msg built by hand belongs to no slab: holds on it are not counted.
	hand := &token.Msg{Kind: token.MsgGetS}
	hand.Sent(3)
	hand.Release()
	hand.Release()
	if hand.Kind != token.MsgGetS {
		t.Fatal("a hand-built message was freed")
	}
}

// mustPanic runs f and returns what it panicked with, failing the test if
// it returned normally.
func mustPanic(t *testing.T, what string, f func()) (v interface{}) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
	return nil
}

// TestReleasedMsgPanics checks that a message cannot be used after its last
// release: a freed slot's Kind is a value no handler accepts, so delivering
// it panics in either controller, naming the kind, and releasing it once
// more panics too.
func TestReleasedMsgPanics(t *testing.T) {
	h := newHarness(t, 2, nil)
	var s token.Msgs
	m := s.New(token.Msg{Kind: token.MsgGetS, Addr: 5, Src: h.ctrls[1].Node})
	m.Release()
	got := mustPanic(t, "a cache controller handling a released message", func() { h.ctrls[0].Handle(m) })
	if msg := fmt.Sprint(got); !strings.Contains(msg, "Kind(255)") {
		t.Fatalf("panic %q does not name the freed kind", msg)
	}
	got = mustPanic(t, "a memory controller handling a released message", func() { h.mc.Handle(m) })
	if msg := fmt.Sprint(got); !strings.Contains(msg, "Kind(255)") {
		t.Fatalf("panic %q does not name the freed kind", msg)
	}
	mustPanic(t, "a second release", m.Release)
}

// TestKindString checks that every kind prints, the ones outside the
// protocol's set included.
func TestKindString(t *testing.T) {
	for k, want := range map[token.Kind]string{
		token.MsgGetS: "GetS", token.MsgPersistentDeactivate: "PDeact",
		token.MsgPersistentDeactivate + 1: "Kind(10)", 255: "Kind(255)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d prints %q, want %q", uint8(k), got, want)
		}
	}
}

// cyclingRouter writes a different destination set into its own words on
// every call and remembers what it routed and which words it returned.
type cyclingRouter struct {
	sets   [][]uint64
	calls  int
	words  []uint64
	routed [][]uint64
	bufs   []*uint64
}

func (r *cyclingRouter) Route(token.RouteInfo) (first, second []uint64) {
	r.words = append(r.words[:0], r.sets[r.calls%len(r.sets)]...)
	r.calls++
	r.routed = append(r.routed, slices.Clone(r.words))
	r.bufs = append(r.bufs, &r.words[0])
	return r.words, nil
}

// oracleLog records, on arrival, the destination set each RO-shared GetS
// carries to the memory controller.
type oracleLog struct{ seen [][]uint64 }

func (o *oracleLog) ROProviderAmong(_ mem.BlockAddr, cores []uint64) bool {
	o.seen = append(o.seen, slices.Clone(cores))
	return false
}

// TestRetryKeepsRoutedDests delays a transaction's first RO-shared request
// to memory past its retry, so the retry routes into the same words before
// the first request arrives. The memory controller's oracle must still see
// each attempt's own destination set.
func TestRetryKeepsRoutedDests(t *testing.T) {
	r := &cyclingRouter{words: make([]uint64, 0, 1)}
	h := newHarness(t, 4, r)
	r.sets = [][]uint64{
		mesh.Words(h.ctrls[1].Node),
		mesh.Words(h.ctrls[2].Node, h.ctrls[3].Node),
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
		t.Fatal("the retry was not routed into the first attempt's words")
	}
	// The retry arrives first; the delayed first attempt arrives after the
	// retry overwrote the words.
	want := [][]uint64{r.routed[1], r.routed[0]}
	if len(o.seen) != len(want) {
		t.Fatalf("oracle consulted %d times, want %d", len(o.seen), len(want))
	}
	for i := range want {
		if !slices.Equal(o.seen[i], want[i]) {
			t.Fatalf("arrival %d carried %v, want %v", i, o.seen[i], want[i])
		}
	}
}
