package sim

import "testing"

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycle(i&1023), func() {})
		if e.Pending() > 8192 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkScheduleFnAndFire(b *testing.B) {
	e := NewEngine()
	fn := func(interface{}, uint64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleFn(Cycle(i&1023), fn, nil, uint64(i))
		if e.Pending() > 8192 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRandZipf(b *testing.B) {
	r := NewRand(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Zipf(4096, 0.7)
	}
	_ = sink
}

// engineMix is the delay mix of a pinned Table II run (fft, vsnoop-base,
// 16 vCPUs on 16 cores): each entry is one event's delay and whether it
// crosses to another domain, drawn once so the timed loop does no RNG work.
type engineMix struct {
	delay [4096]Cycle
	cross [4096]bool
	i     int
	nd    int32
}

func newEngineMix(nd int32) *engineMix {
	m := &engineMix{nd: nd}
	r := NewRand(7)
	for i := range m.delay {
		p := r.Intn(1000)
		switch {
		case p < 310: // vCPU think-time steps
			m.delay[i] = Cycle(1 + r.Intn(16))
		case p < 740: // mesh deliveries, mostly to another domain
			m.delay[i] = Cycle(2 + r.Intn(63))
			m.cross[i] = true
		case p < 824: // memory-controller replies
			m.delay[i] = Cycle(1 + r.Intn(256))
		case p < 910: // first-attempt token timeouts
			m.delay[i] = Cycle(400 + r.Intn(65))
		case p < 995: // cache-hit and controller-local completions
			m.delay[i] = Cycle(1 + r.Intn(16))
		default: // a trickle past the ring: backed-off retries, migrations
			m.delay[i] = Cycle(1024 + r.Intn(3072))
		}
	}
	return m
}

// BenchmarkEngineMix measures one Step on the queue shape the simulator
// actually runs: about 48 pending events in 16 domains (domain-prefixed
// keys, so same-cycle arrivals are not in key order), each fired event
// scheduling one successor from engineMix. BenchmarkScheduleFnAndFire's
// 8192 uniformly spread events is the wrong shape for the serial hot path.
func BenchmarkEngineMix(b *testing.B) {
	const nd = 16
	e := NewEngine()
	e.SetDomains(nd, nil, nil)
	m := newEngineMix(nd)
	var fn HandlerFn
	fn = func(_ interface{}, u uint64) {
		i := m.i & (len(m.delay) - 1)
		m.i++
		dom := e.curDom
		if m.cross[i] {
			dom = (dom + 1 + int32(u%(nd-1))) % nd
		}
		e.ScheduleFnAtDom(e.Now()+m.delay[i], dom, fn, nil, u*2654435761+1)
	}
	for i := 0; i < 48; i++ {
		e.SetCurDomain(int32(i % nd))
		e.ScheduleFn(Cycle(i), fn, nil, uint64(i))
	}
	for i := 0; i < 1<<14; i++ { // reach the steady-state queue shape
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
