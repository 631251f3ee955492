package sim

import (
	"errors"
	"sort"
	"testing"
)

// The queue tests drive an Engine and a reference model side by side and
// require the same firing sequence. The model is the specification of the
// event order: a slice kept sorted by (at, key), where keys follow the
// nextKey rule (the schedule counter, or the scheduling domain's counter
// prefixed by the domain in domain mode). Whatever layout the engine's
// queue uses, it must pop exactly this sequence and answer Pending,
// RunUntil and Drain as the sorted slice does. A cancelled timer leaves the
// slice, and Fired counts it.

// qDelays are the delays a queue op picks from: same-cycle, short protocol
// latencies, the ring boundary on both sides, and far beyond it.
var qDelays = [...]Cycle{0, 0, 1, 2, 7, 16, 63, 64, 255, 400, 464, 1022, 1023, 1024, 1025, 2047, 2048, 3000, 70000, 1 << 40}

// qEvent is one pending event of the reference model. Every event carries
// a distinct payload pointer in arg as well as its id in u, so a handler
// can tell when either field came from another event.
type qEvent struct {
	at  Cycle
	key uint64
	dom int32
	id  uint64
	p   *qPayload
}

// qPayload is an event's arg: one allocation per event, so pointer
// identity names the event.
type qPayload struct{ id uint64 }

// qState is the model's mirror of the engine's clock, key counters and
// pending events.
type qState struct {
	now    Cycle
	curDom int32
	seq    uint64
	domSeq []uint64
	pend   []qEvent // sorted by (at, key)
	held   []qHeld  // keys drawn by op 9, not yet used
	timers []qTimer // timers scheduled, fired or not, for op 10
}

// qTimer is a Timer returned by ScheduleTimer, with the id of its event
// and whether its delay kept it in the calendar ring.
type qTimer struct {
	t    Timer
	id   uint64
	ring bool
}

// qHeld is a key drawn ahead of its event (NextKeys), with the domain that
// will execute the event: what a parked delivery holds until it is put
// back.
type qHeld struct {
	key uint64
	dom int32
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
	// cancelled counts the timers CancelTimer took out.
	cancelled uint64
	// obsNext, during a Drain with a period, is the next multiple of the
	// period whose observer call is due: no event at or after it may fire
	// first. 0 outside such a Drain.
	obsNext Cycle
}

func newQModel(t testing.TB, nd int) *qModel {
	m := &qModel{t: t, e: NewEngine(), nd: nd}
	if nd > 1 {
		m.e.SetDomains(nd)
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
	p := &qPayload{id: id}
	at := m.st.now + delay
	m.add(qEvent{at: at, key: m.key(), dom: dom, id: id, p: p})
	switch {
	case dom != m.st.curDom:
		m.e.ScheduleFnAtDom(at, dom, m.fn, p, id)
	case id%4 == 0:
		m.e.ScheduleFn(delay, call, func() { m.handle(p, id) }, 0)
	case id%4 == 1:
		t := m.e.ScheduleTimer(delay, m.fn, p, id)
		if (t.i != 0) != (delay < ringSize) {
			m.t.Fatalf("timer of event %d, delay %d: pool index %d", id, delay, t.i)
		}
		if len(m.st.timers) == 64 {
			m.st.timers = append(m.st.timers[:0], m.st.timers[32:]...)
		}
		m.st.timers = append(m.st.timers, qTimer{t: t, id: id, ring: delay < ringSize})
	default:
		m.e.ScheduleFn(delay, m.fn, p, id)
	}
}

// drawKeys draws n keys at once in both worlds and holds them for
// putBack: the engine's i-th key must be the model's i-th one-at-a-time
// draw.
func (m *qModel) drawKeys(n int) {
	first := m.e.NextKeys(uint64(n))
	for i := 0; i < n; i++ {
		want := m.key()
		if got := first + uint64(i); got != want {
			m.t.Fatalf("key %d of NextKeys(%d) = %#x, want %#x", i, n, got, want)
		}
		m.st.held = append(m.st.held, qHeld{key: want, dom: m.st.curDom})
	}
}

// putBack inserts the event of held key i, delay cycles ahead of now, with
// that old key (ScheduleKeyed): it must take the place its key gives it,
// even among events keyed after it was drawn.
func (m *qModel) putBack(i int, delay Cycle) {
	h := m.st.held[i]
	m.st.held = append(m.st.held[:i], m.st.held[i+1:]...)
	m.nextID++
	id := m.nextID
	p := &qPayload{id: id}
	at := m.st.now + delay
	m.add(qEvent{at: at, key: h.key, dom: h.dom, id: id, p: p})
	m.e.ScheduleKeyed(at, h.key, h.dom, m.fn, p, id)
}

// cancel cancels timer i: it must succeed exactly when the timer's event
// is still pending in the model and sits in the calendar ring. A cancelled
// event leaves the model.
func (m *qModel) cancel(i int) {
	qt := m.st.timers[i]
	pos := -1
	for j, ev := range m.st.pend {
		if ev.id == qt.id {
			pos = j
			break
		}
	}
	want := pos >= 0 && qt.ring
	if got := m.e.CancelTimer(qt.t); got != want {
		m.t.Fatalf("CancelTimer(event %d) = %v, want %v (pending %v, ring %v)", qt.id, got, want, pos >= 0, qt.ring)
	}
	if want {
		m.st.pend = append(m.st.pend[:pos], m.st.pend[pos+1:]...)
		m.cancelled++
		m.st.timers = append(m.st.timers[:i], m.st.timers[i+1:]...)
	}
}

// deposit schedules an event the way a cross-domain delivery does: drawn
// under domain src's key counter, through ScheduleFnAtDom, to execute in
// the current domain. Its key carries src's prefix, so it lands out of key
// order against the current domain's same-cycle events. In single-domain
// mode it is a plain schedule.
func (m *qModel) deposit(delay Cycle, src int) {
	cur := m.st.curDom
	m.setDomain(int32(src % m.nd))
	m.schedule(delay, cur)
	m.setDomain(cur)
}

// handle is every event's handler: it must be the model's earliest event,
// with that event's own payload in arg and id in u.
func (m *qModel) handle(arg interface{}, id uint64) {
	if len(m.st.pend) == 0 {
		m.t.Fatalf("event %d fired but the model queue is empty", id)
	}
	want := m.st.pend[0]
	if id != want.id || m.e.Now() != want.at {
		m.t.Fatalf("fired event %d at cycle %d, want event %d at cycle %d", id, m.e.Now(), want.id, want.at)
	}
	if p, _ := arg.(*qPayload); p != want.p {
		m.t.Fatalf("event %d fired with arg %v, want its own payload %p", id, arg, want.p)
	}
	if m.obsNext > 0 && want.at >= m.obsNext {
		m.t.Fatalf("event %d at cycle %d fired before the observer of multiple %d", id, want.at, m.obsNext)
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
	if m.e.Now() != m.st.now {
		m.t.Fatalf("Now() = %d, want %d", m.e.Now(), m.st.now)
	}
	if got, want := m.e.Fired(), uint64(m.fired)+m.cancelled; got != want || m.e.Cancelled() != m.cancelled {
		m.t.Fatalf("Fired() = %d, Cancelled() = %d; want %d fired of which %d cancelled", got, m.e.Cancelled(), want, m.cancelled)
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

// drainChecked runs Drain with a period and a step budget decoded from
// arg: the period is a qDelays entry (0 means no observer), and the budget
// is 0 (none) when arg's top bit is set, else 0 to 7 events past Fired. The
// observer must see the model's head at the moved clock, with no event due
// before it; the run must stop exactly at the budget with work queued, or
// drain.
func (m *qModel) drainChecked(arg byte) {
	period := qDelays[int(arg)%len(qDelays)]
	start := m.e.Fired()
	var budget uint64
	if arg&0x80 == 0 {
		budget = start + uint64(arg>>4&7)
	}
	var observe func()
	if period > 0 {
		m.obsNext = (m.st.now/period + 1) * period
		observe = func() {
			now := m.e.Now()
			if len(m.st.pend) == 0 || m.st.pend[0].at != now || now < m.obsNext || m.e.CurKey() != 0 {
				m.t.Fatalf("observer at (%d, %#x) for multiple %d of %d; model head %+v",
					now, m.e.CurKey(), m.obsNext, period, m.st.pend)
			}
			m.st.now = now
			m.obsNext = (now/period + 1) * period
		}
	}
	err := m.e.Drain(budget, period, observe)
	m.obsNext = 0
	if len(m.st.pend) == 0 {
		if err != nil {
			m.t.Fatalf("Drain(%d, %d) = %v with the queue drained", budget, period, err)
		}
		return
	}
	var sl *StepLimitError
	if budget == 0 || !errors.As(err, &sl) || sl.Pending != len(m.st.pend) || sl.Now != m.st.now ||
		m.e.Fired() != max(budget, start) {
		m.t.Fatalf("Drain(%d, %d) = %v with %d events queued and %d fired", budget, period, err, len(m.st.pend), m.e.Fired())
	}
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
	switch op % 11 {
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
		m.drainChecked(arg)
	case 9:
		if arg&1 == 0 || len(m.st.held) == 0 {
			m.drawKeys(1)
		} else {
			m.putBack(int(arg>>1)%len(m.st.held), d)
		}
	case 10:
		if len(m.st.timers) > 0 {
			m.cancel(int(arg) % len(m.st.timers))
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

// TestNextKeysRange checks that a range of keys drawn at once, as a
// multicast draws them, is the keys one-at-a-time draws would give, in
// single-domain and domain mode, and that the draws after it go on from
// its end.
func TestNextKeysRange(t *testing.T) {
	for _, nd := range []int{1, 4} {
		m := newQModel(t, nd)
		m.setDomain(int32(nd - 1))
		m.drawKeys(5)
		m.drawKeys(1)
		m.setDomain(0)
		m.drawKeys(3)
		m.schedule(10, 1)
		m.drain()
	}
}

// TestQueueOrderDeterministic replays a fixed pseudo-random op stream in
// single-domain and domain mode, with the clock crossing the ring many
// times and events keyed in foreign domains.
func TestQueueOrderDeterministic(t *testing.T) {
	for _, nd := range []int{1, 4, 16} {
		m := newQModel(t, nd)
		r := NewRand(uint64(nd))
		for i := 0; i < 4000; i++ {
			op := byte(r.Intn(11))
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
		if m.cancelled == 0 {
			t.Fatalf("nd=%d: no timer was cancelled", nd)
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
	f.Add(true, []byte{9, 0, 0, 3, 9, 2, 0, 12, 6, 0, 9, 1, 9, 3, 5, 2, 9, 0, 6, 7, 9, 5})
	f.Add(false, []byte{0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 10, 1, 4, 4, 10, 0, 0, 19, 10, 0, 6, 3, 10, 0, 0, 8, 6, 7, 10, 5})
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

// TestPutBackKeepsOrder pins the put-back case of a parked delivery: a
// key drawn between two same-cycle events, then inserted by the first of
// them at the current cycle, has not passed and fires before the second.
// The pair is due at a ring cycle and at a far one, each after an earlier
// event with a larger key, so a firing that left the executing key stale
// would show. It also checks that RunUntil, which moves the clock without
// firing, resets the position Passed compares against.
func TestPutBackKeepsOrder(t *testing.T) {
	for _, nd := range []int{1, 4} {
		for _, at := range []Cycle{10, 2000} {
			e := NewEngine()
			if nd > 1 {
				e.SetDomains(nd)
				e.SetCurDomain(2)
			}
			var order []string
			var held uint64
			record := func(arg interface{}, _ uint64) { order = append(order, arg.(string)) }
			putBack := func(arg interface{}, _ uint64) {
				order = append(order, arg.(string))
				if e.Passed(at, held) {
					t.Fatalf("nd=%d at=%d: held key %#x passed at (%d, %#x)", nd, at, held, e.Now(), e.CurKey())
				}
				e.ScheduleKeyed(at, held, 2, record, "parked", 0)
			}
			e.ScheduleFnAt(at, putBack, "gain", 0)
			held = e.NextKeys(1)
			e.ScheduleFnAt(at, record, "queued", 0)
			e.ScheduleFnAt(5, record, "early", 0)
			e.Run()
			want := []string{"early", "gain", "parked", "queued"}
			if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] ||
				order[2] != want[2] || order[3] != want[3] {
				t.Fatalf("nd=%d at=%d: fired %v, want %v", nd, at, order, want)
			}
			if !e.Passed(at, held) {
				t.Fatalf("nd=%d at=%d: (%d, %#x) has not passed after it fired", nd, at, at, held)
			}
			end := at + 10
			e.RunUntil(end)
			if e.CurKey() != 0 || e.Passed(end, 1) || !e.Passed(end-1, 1<<62) {
				t.Fatalf("nd=%d: after RunUntil(%d): CurKey %#x, Passed(now, 1) %v, Passed(now-1, max) %v",
					nd, end, e.CurKey(), e.Passed(end, 1), e.Passed(end-1, 1<<62))
			}
		}
	}
}

// TestFiredEventsReleaseReferences checks that firing and cancelling drop
// the queue's references to an event's handler and payload: once ring,
// far, closure-form and cross-domain events have all fired or been cancelled,
// every pool node and every spare slot of the far heap's array holds nil
// fn2 and arg. A stale arg would keep its payload alive, such as a whole
// token.Msgs chunk.
func TestFiredEventsReleaseReferences(t *testing.T) {
	for _, nd := range []int{1, 4} {
		m := newQModel(t, nd)
		for i, d := range qDelays {
			m.schedule(d, m.st.curDom)       // ring and far, every 4th a closure
			m.schedule(d, int32((i+1)%m.nd)) // foreign domain via ScheduleFnAtDom
			m.deposit(d, i%3)                // keyed in another domain
		}
		for i := len(m.st.timers) - 1; i >= 0; i-- {
			m.cancel(i) // every ring timer; far ones stay and fire
		}
		m.drain()
		if m.fired == 0 || m.cancelled == 0 || len(m.e.pool) == 0 || cap(m.e.far) == 0 {
			t.Fatalf("nd=%d: fired %d and cancelled %d events through %d pool nodes and a far heap of cap %d; want all four nonzero",
				nd, m.fired, m.cancelled, len(m.e.pool), cap(m.e.far))
		}
		for i := range m.e.pool {
			if n := &m.e.pool[i]; n.fn2 != nil || n.arg != nil {
				t.Fatalf("nd=%d: pool node %d still holds fn2 set=%v, arg %v after firing", nd, i, n.fn2 != nil, n.arg)
			}
		}
		for i, n := range m.e.far[:cap(m.e.far)] {
			if n.fn2 != nil || n.arg != nil {
				t.Fatalf("nd=%d: far slot %d still holds fn2 set=%v, arg %v after firing", nd, i, n.fn2 != nil, n.arg)
			}
		}
	}
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
