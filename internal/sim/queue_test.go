package sim

import (
	"sort"
	"testing"
)

// The queue tests drive an Engine and a reference model side by side and
// require the same firing sequence. The model is the specification of the
// event order: a slice kept sorted by (at, key), where keys follow the
// nextKey rule (the schedule counter, or the scheduling domain's counter
// prefixed by the domain in domain mode). Whatever layout the engine's
// queue uses, it must pop exactly this sequence and answer NextAt,
// Pending, RunUntil and RunWindow as the sorted slice does.

// qDelays are the delays a queue op picks from: same-cycle, short protocol
// latencies, the ring boundary on both sides, and far beyond it.
var qDelays = [...]Cycle{0, 0, 1, 2, 7, 16, 63, 64, 255, 400, 464, 1022, 1023, 1024, 1025, 2047, 2048, 3000, 70000, 1 << 40}

// qEvent is one pending event of the reference model.
type qEvent struct {
	at  Cycle
	key uint64
	dom int32
	id  uint64
}

// qState is the model's restorable state, mirroring engSnap.
type qState struct {
	now    Cycle
	curDom int32
	seq    uint64
	domSeq []uint64
	pend   []qEvent // sorted by (at, key)
}

func (s *qState) clone() qState {
	c := *s
	c.domSeq = append([]uint64(nil), s.domSeq...)
	c.pend = append([]qEvent(nil), s.pend...)
	return c
}

// qModel couples an engine with the reference model. Every fired event
// checks itself against the model's head, and fired events spawn
// children (same-cycle and ring-boundary delays) through both sides, so
// delay-0 pushes land while their bucket drains.
type qModel struct {
	t      testing.TB
	e      *Engine
	nd     int // domains (1 = single-domain mode)
	st     qState
	nextID uint64
	fn     HandlerFn
	fired  int

	snap    engSnap
	snapSt  qState
	hasSnap bool
}

func newQModel(t testing.TB, nd int) *qModel {
	m := &qModel{t: t, e: NewEngine(), nd: nd}
	if nd > 1 {
		m.e.SetDomains(nd, nil, nil)
		m.st.domSeq = make([]uint64, nd)
	}
	m.fn = m.handle
	return m
}

// key mirrors nextKey for the model's current domain.
func (m *qModel) key() uint64 {
	if m.st.domSeq == nil {
		m.st.seq++
		return m.st.seq
	}
	d := m.st.curDom
	m.st.domSeq[d]++
	return uint64(d)<<48 | m.st.domSeq[d]
}

func (m *qModel) add(ev qEvent) {
	p := m.st.pend
	i := sort.Search(len(p), func(i int) bool {
		return p[i].at > ev.at || p[i].at == ev.at && p[i].key > ev.key
	})
	p = append(p, qEvent{})
	copy(p[i+1:], p[i:])
	p[i] = ev
	m.st.pend = p
}

// schedule schedules one event delay cycles ahead in both worlds, to
// execute in domain dom (a foreign domain exercises ScheduleFnAtDom).
func (m *qModel) schedule(delay Cycle, dom int32) {
	m.nextID++
	id := m.nextID
	at := m.st.now + delay
	m.add(qEvent{at: at, key: m.key(), dom: dom, id: id})
	switch {
	case dom != m.st.curDom:
		m.e.ScheduleFnAtDom(at, dom, m.fn, nil, id)
	case id%4 == 0:
		m.e.Schedule(delay, func() { m.handle(nil, id) })
	default:
		m.e.ScheduleFn(delay, m.fn, nil, id)
	}
}

// deposit pushes an event the way a mailbox drain does: its key carries a
// foreign domain prefix (one no local scheduler draws from), so it lands
// out of key order against the local same-cycle events.
func (m *qModel) deposit(delay Cycle, src int) {
	m.nextID++
	id := m.nextID
	dom := int32(src % m.nd)
	key := uint64(m.nd+src)<<48 | id
	ev := event{at: m.st.now + delay, key: key, dom: dom, fn2: m.fn, u: id}
	m.add(qEvent{at: ev.at, key: key, dom: dom, id: id})
	m.e.push(&ev)
}

// handle is every event's handler: it must be the model's earliest event.
func (m *qModel) handle(_ interface{}, id uint64) {
	if len(m.st.pend) == 0 {
		m.t.Fatalf("event %d fired but the model queue is empty", id)
	}
	want := m.st.pend[0]
	if id != want.id || m.e.Now() != want.at {
		m.t.Fatalf("fired event %d at cycle %d, want event %d at cycle %d", id, m.e.Now(), want.id, want.at)
	}
	m.st.pend = m.st.pend[1:]
	m.st.now, m.st.curDom = want.at, want.dom
	m.fired++
	if id%3 == 0 {
		m.schedule(0, m.st.curDom)
	}
	if id%7 == 0 {
		m.schedule(qDelays[id%uint64(len(qDelays))], m.st.curDom)
	}
}

// check compares the engine's queue-level answers with the model's.
func (m *qModel) check() {
	m.t.Helper()
	if got, want := m.e.Pending(), len(m.st.pend); got != want {
		m.t.Fatalf("Pending() = %d, want %d", got, want)
	}
	at, ok := m.e.NextAt()
	if ok != (len(m.st.pend) > 0) || ok && at != m.st.pend[0].at {
		m.t.Fatalf("NextAt() = %d, %v; model head %+v", at, ok, m.st.pend)
	}
	if m.e.Now() != m.st.now {
		m.t.Fatalf("Now() = %d, want %d", m.e.Now(), m.st.now)
	}
}

func (m *qModel) step() {
	had := len(m.st.pend) > 0
	if m.e.Step() != had {
		m.t.Fatalf("Step() = %v with %d model events pending", !had, len(m.st.pend))
	}
}

func (m *qModel) runUntil(limit Cycle) {
	m.e.RunUntil(limit)
	if len(m.st.pend) > 0 && m.st.pend[0].at <= limit {
		m.t.Fatalf("RunUntil(%d) left event at %d queued", limit, m.st.pend[0].at)
	}
	if m.st.now < limit {
		m.st.now = limit
	}
}

func (m *qModel) runWindow(wend Cycle) {
	if err := m.e.RunWindow(wend); err != nil {
		m.t.Fatal(err)
	}
	if len(m.st.pend) > 0 && m.st.pend[0].at < wend {
		m.t.Fatalf("RunWindow(%d) left event at %d queued", wend, m.st.pend[0].at)
	}
}

func (m *qModel) save() {
	m.e.saveSnap(&m.snap)
	m.snapSt = m.st.clone()
	m.hasSnap = true
}

func (m *qModel) restore() {
	if !m.hasSnap {
		return
	}
	m.e.restoreSnap(&m.snap)
	m.st = m.snapSt.clone()
}

// setDomain switches the scheduling domain used outside handlers.
func (m *qModel) setDomain(d int32) {
	if m.nd > 1 {
		m.e.SetCurDomain(d)
		m.st.curDom = d
	}
}

// apply decodes one op from (op, arg) bytes: the fuzz target's input
// grammar, also used by the deterministic test.
func (m *qModel) apply(op, arg byte) {
	d := qDelays[int(arg)%len(qDelays)]
	switch op % 10 {
	case 0, 1, 2:
		m.schedule(d, m.st.curDom)
	case 3:
		m.schedule(d, int32(int(arg)%m.nd))
	case 4:
		m.deposit(d, int(arg)%3)
	case 5:
		m.setDomain(int32(int(arg) % m.nd))
	case 6:
		for i := 0; i <= int(arg%8); i++ {
			m.step()
		}
	case 7:
		m.runUntil(m.st.now + d)
	case 8:
		m.runWindow(m.st.now + d)
	case 9:
		if arg&1 == 0 {
			m.save()
		} else {
			m.restore()
		}
	}
	m.check()
}

// drain runs the engine dry and checks the model drained with it.
func (m *qModel) drain() {
	m.e.Run()
	if len(m.st.pend) != 0 {
		m.t.Fatalf("engine drained with %d model events pending", len(m.st.pend))
	}
	m.check()
}

// TestQueueOrderBoundaries pins the ring edges one by one: delays 1023,
// 1024 and 1025 around the ring span, a far event and a ring event due in
// the same cycle in both key orders, and same-cycle children pushed while
// their bucket drains.
func TestQueueOrderBoundaries(t *testing.T) {
	for _, nd := range []int{1, 4} {
		m := newQModel(t, nd)
		for _, d := range []Cycle{1025, 1024, 1023, 0, 1, 1 << 40} {
			m.schedule(d, 0)
			m.check()
		}
		// A far event (scheduled 1500 ahead) and, once the clock has moved
		// on, a ring event for the same cycle: the far one has the smaller
		// key and must fire first.
		m.schedule(1500, 0)
		m.runUntil(m.st.now + 1000)
		m.check()
		m.schedule(500, 0)
		if nd > 1 {
			// The reverse tie: a far event keyed in domain 3, then a ring
			// event keyed in domain 1 for the same cycle — the ring event
			// has the smaller key and must fire first.
			m.setDomain(3)
			m.schedule(2000, 3)
			m.runUntil(m.st.now + 1200)
			m.setDomain(1)
			m.schedule(800, 1)
			m.setDomain(0)
		}
		m.check()
		m.runUntil(m.st.now + 4000)
		m.check()
		m.drain()
		if m.fired == 0 {
			t.Fatal("nothing fired")
		}
	}
}

// TestQueueOrderDeterministic replays a fixed pseudo-random op stream in
// single-domain and domain mode, with the clock crossing the ring many
// times, snapshots taken and restored mid-stream, and deposits of
// foreign-domain keys.
func TestQueueOrderDeterministic(t *testing.T) {
	for _, nd := range []int{1, 4, 16} {
		m := newQModel(t, nd)
		r := NewRand(uint64(nd))
		for i := 0; i < 4000; i++ {
			op := byte(r.Intn(10))
			if op == 7 && r.Intn(4) != 0 {
				op = 6 // keep long clock jumps rarer than steps
			}
			m.apply(op, byte(r.Intn(256)))
			if len(m.st.pend) > 400 {
				m.runUntil(m.st.now + 600)
			}
		}
		if m.st.now < 3*ringSize {
			t.Fatalf("nd=%d: clock reached only %d, want at least three ring revolutions", nd, m.st.now)
		}
		m.drain()
	}
}

// FuzzQueueOrder checks the order-equivalence property on arbitrary op
// streams: pairs of (op, arg) bytes, decoded by qModel.apply.
func FuzzQueueOrder(f *testing.F) {
	f.Add(false, []byte{0, 12, 0, 13, 0, 14, 6, 7, 7, 19, 0, 0, 6, 0})
	f.Add(true, []byte{5, 2, 0, 3, 5, 1, 0, 3, 3, 7, 4, 9, 9, 0, 7, 17, 6, 7, 9, 1, 6, 7})
	f.Add(true, []byte{0, 15, 7, 11, 0, 4, 3, 13, 4, 14, 7, 16, 7, 16, 7, 16, 6, 255})
	f.Fuzz(func(t *testing.T, domains bool, ops []byte) {
		nd := 1
		if domains {
			nd = 4
		}
		if len(ops) > 512 { // longer streams add little but slow minimizing
			ops = ops[:512]
		}
		m := newQModel(t, nd)
		for i := 0; i+1 < len(ops); i += 2 {
			m.apply(ops[i], ops[i+1])
		}
		m.drain()
	})
}

// TestQueueZeroAllocAcrossRevolutions is the allocation gate for the
// calendar ring over time: after one warm-up pass, a mixed near/far delay
// pattern that carries the clock through more than three ring
// revolutions must not allocate — buckets reuse the shared node pool, far
// events reuse the far heap's array.
func TestQueueZeroAllocAcrossRevolutions(t *testing.T) {
	e := NewEngine()
	fn := func(_ interface{}, _ uint64) {}
	delays := [...]Cycle{0, 1, 3, 16, 64, 255, 464, 1023, 1024, 1500, 2048}
	pass := func() {
		start := e.Now()
		for i := 0; i < 48; i++ {
			e.ScheduleFn(delays[i%len(delays)], fn, nil, 0)
		}
		for i := 0; e.Now()-start < 3*ringSize+ringSize/2; i++ {
			e.ScheduleFn(delays[i%len(delays)], fn, nil, uint64(i))
			e.Step()
		}
		e.Run()
	}
	pass()
	avg := testing.AllocsPerRun(20, pass)
	if avg != 0 {
		t.Fatalf("ring revolutions allocate %.2f allocs per pass, want 0", avg)
	}
}
