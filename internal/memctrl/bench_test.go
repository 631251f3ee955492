package memctrl

import (
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/mesh"
	"vsnoop/internal/sim"
	"vsnoop/internal/token"
)

// interleaved builds controller 1 of 4 on a mesh whose requester endpoint
// discards every response: the Table II interleaving, where this
// controller homes the blocks with addr % 4 == 1.
func interleaved() (*Ctrl, *sim.Engine, mesh.NodeID) {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig())
	p := token.DefaultParams(16)
	req := net.Attach(3, 3, func(interface{}) {})
	node := net.Attach(0, 0, nil)
	m := &Ctrl{Eng: eng, Net: net, Node: node, P: p, Cores: 1,
		Interleave: 4, Residue: 1}
	m.Init()
	net.SetHandler(node, m.Handle)
	return m, eng, req
}

// BenchmarkHandleGetS serves clean reads over an interleaved address
// stream: a scattered walk over 64K homed blocks (16 table chunks), with
// every 16th read a first touch of a block never seen before. Each read's
// token comes straight back as a writeback, so memory stays the owner and
// keeps answering from DRAM.
func BenchmarkHandleGetS(b *testing.B) {
	m, eng, req := interleaved()
	const window = 1 << 16
	fresh := uint64(window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i) * 7919 % window
		if i%16 == 0 {
			idx = fresh
			fresh++
		}
		a := mem.BlockAddr(idx*4 + 1)
		m.handleGetS(&token.Msg{Kind: token.MsgGetS, Addr: a, Src: req})
		m.absorb(&token.Msg{Kind: token.MsgWBTokens, Addr: a, Src: req, Tokens: 1})
		if eng.Pending() > 4096 {
			eng.Run()
		}
	}
	eng.Run()
}
