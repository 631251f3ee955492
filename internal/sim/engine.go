// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository: a cycle clock, a deterministic event
// queue, and reproducible pseudo-random number streams.
//
// All simulators in this project (mesh network, caches, token coherence,
// hypervisor scheduler) are built as event handlers scheduled on a single
// Engine. Determinism is guaranteed: events at the same cycle fire in
// schedule order, and all randomness flows from explicitly seeded Rand
// streams, so a run is a pure function of its configuration.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle uint64

// HandlerFn is what every event runs: a function created once (at
// component construction) whose per-event state rides in the event itself
// as (arg, u). Scheduling one allocates nothing.
type HandlerFn func(arg interface{}, u uint64)

// event is one queue entry. Every event has one form: fire calls
// fn2(arg, u). Events live inline in the queue's node pool and far
// heap — there is no per-event heap object and no interface boxing on push
// or pop. next and prev pack beside dom, and four bytes of padding make an
// event 64 bytes: one cache line per pool node (DESIGN.md §8).
type event struct {
	at   Cycle
	key  uint64 // tie-breaker: schedule order (domain-prefixed in domain mode)
	dom  int32  // executing domain (always 0 with one domain)
	next int32  // 1-based pool index of the next event in its bucket, 0 = none
	prev int32  // 1-based pool index of the previous event in its bucket, 0 = none
	_    int32
	fn2  HandlerFn
	arg  interface{}
	u    uint64
}

// Timer names one event scheduled by ScheduleTimer, for CancelTimer: its
// (at, key) and the 1-based pool index of its ring node. The zero Timer,
// and the Timer of an event that went to the far heap, names nothing
// cancellable.
type Timer struct {
	at  Cycle
	key uint64
	i   int32
}

// At returns the cycle the timer's event is due at.
func (t Timer) At() Cycle { return t.at }

// Key returns the tie-break key of the timer's event.
func (t Timer) Key() uint64 { return t.key }

// before is the strict total order on events: cycle, then schedule order.
// In domain mode the key embeds the scheduling domain in its high bits, so
// same-cycle ties break by (scheduling domain, per-domain schedule order).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// ringSize is the calendar ring's span in cycles: one bucket per cycle of
// [now, now+ringSize). It covers every delay the coherence protocols
// schedule on a Table II machine, first-attempt token timeouts included.
const (
	ringSize  = 1024
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// minPool is the node pool's first capacity. At 512 nodes (32 KiB) the
// pool is a large object from its first allocation on, so it starts on a
// page boundary and every 64-byte node fills exactly one cache line. A
// smaller pointerful array above 512 bytes would start 8 bytes into its
// size-class slot, past Go's malloc header (DESIGN.md §8).
const minPool = 512

// Engine is a discrete-event simulator. The zero value is ready to use.
// The queue is a calendar queue: a ring of per-cycle buckets for events
// due within ringSize cycles, and a concrete-typed 4-ary min-heap (far)
// for the rest. Each bucket is a key-ordered intrusive list threaded
// through one shared node pool, so the whole ring grows one backing array
// and steady-state pushes and pops allocate nothing.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	// curKey is the key of the executing (or last fired) event; together
	// with now it is the engine's position in (at, key) order, which Passed
	// compares against. A clock move without a firing (RunUntil) resets it
	// to 0, below every key, so the position is "start of cycle now".
	curKey uint64

	// parked counts deliveries that a component took out of the queue
	// because they provably do nothing (Park/Unpark): each one stands for an
	// event that fired. It stays out of fired, whose low bits pace the
	// cancellation poll over executed events only.
	parked uint64

	// cancelled counts timers CancelTimer took out of the queue before they
	// fired: each stands for an event that fired as a no-op. Like parked, it
	// stays out of fired.
	cancelled uint64

	// Ring: bucket at&ringMask holds the events due at cycle at, linked in
	// key order through pool (1-based indices, 0 = none); free heads the
	// pool's free list and occ marks non-empty buckets. Every ring event is
	// due in [now, now+ringSize), so a bucket never mixes two cycles.
	pool  []event
	free  int32
	nring int
	head  [ringSize]int32
	tail  [ringSize]int32
	occ   [ringWords]uint64

	// far is the 4-ary min-heap of events due ringSize or more cycles
	// after the cycle they were scheduled at.
	far []event

	// Domain mode (SetDomains): events carry an executing domain and
	// schedule-order keys are drawn from per-domain counters, so same-cycle
	// ties break by (scheduling domain, per-domain order). domSeq is nil
	// with one domain (the zero Engine, or SetDomains(1)), where key == seq:
	// the key domain 0's counter would give.
	domSeq []uint64
	curDom int32

	// No-forward-progress watchdog: when progressLimit > 0, Drain fails
	// after that many events fire without a Progress() mark, turning a
	// protocol livelock into a diagnosable error instead of a hang. It
	// counts executed events only, never parked ones: a livelock is made of
	// real retry events, so it trips all the same.
	progressLimit uint64
	sinceProgress uint64

	// cancel, when non-nil, is polled by Drain every cancelPollMask+1
	// events: a tripped Canceler turns into a CanceledError at the next poll,
	// so a dead client or an admin abort stops the run promptly without
	// adding per-event cost to the uncancelled hot path.
	cancel *Canceler
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events fired so far: the executed
// ones plus the parked deliveries (Park) and cancelled timers (CancelTimer)
// that stand for events.
func (e *Engine) Fired() uint64 { return e.fired + e.parked + e.cancelled }

// Parked returns how many of Fired's events were parked deliveries.
func (e *Engine) Parked() uint64 { return e.parked }

// Cancelled returns how many of Fired's events were cancelled timers.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// Uncancel withdraws one cancelled timer's count: the run stopped early,
// before the timer was due, so its event would never have fired.
func (e *Engine) Uncancel() { e.cancelled-- }

// Park counts n events a component holds back from the queue because they
// would do nothing but count themselves: the engine reports them as fired.
func (e *Engine) Park(n uint64) { e.parked += n }

// Unpark withdraws n Park counts: the component put the events back with
// ScheduleKeyed after all, or dropped them unfired at an early exit.
func (e *Engine) Unpark(n uint64) { e.parked -= n }

// CurKey returns the key of the executing event (0 between firings after
// RunUntil moved the clock).
func (e *Engine) CurKey() uint64 { return e.curKey }

// Passed reports whether an event due at (at, key) lies before the
// engine's position in queue order: it would already have fired. An event
// that has not passed would fire later, at its own (at, key).
func (e *Engine) Passed(at Cycle, key uint64) bool {
	return at < e.now || at == e.now && key < e.curKey
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.nring + len(e.far) }

// schedulePastPanic is the cold failure path shared by the ScheduleFn
// variants. It exists so the fmt call (which allocates) stays out of the
// hot scheduling functions.
func schedulePastPanic(at, now Cycle) {
	panic(fmt.Sprintf("sim: schedule at %d before now %d", at, now))
}

// ScheduleFn runs fn(arg, u) after delay cycles (delay 0 means later this
// cycle, after all currently queued same-cycle events). It is the one
// scheduling form: fn is prebound once at construction time and the
// per-event state travels in (arg, u), so nothing escapes to the heap (arg
// should be nil, an already-boxed interface value, or a pointer; u packs
// any scalar state).
func (e *Engine) ScheduleFn(delay Cycle, fn HandlerFn, arg interface{}, u uint64) {
	e.ScheduleFnAt(e.now+delay, fn, arg, u)
}

// ScheduleFnAt is ScheduleFn with an absolute cycle, which must not be in
// the past.
func (e *Engine) ScheduleFnAt(at Cycle, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.nextKey(), e.curDom, fn, arg, u)
}

// ScheduleFnAtDom is ScheduleFnAt with an explicit executing domain: the
// event fires in domain dom's event stream while its tie-break key still
// comes from the current scheduling domain's counter. The mesh uses it for
// cross-domain delivery.
func (e *Engine) ScheduleFnAtDom(at Cycle, dom int32, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.nextKey(), dom, fn, arg, u)
}

// ScheduleTimer is ScheduleFn that returns a Timer for CancelTimer. A
// timer that goes to the far heap (delay ringSize or more) returns a Timer
// that is not cancellable.
func (e *Engine) ScheduleTimer(delay Cycle, fn HandlerFn, arg interface{}, u uint64) Timer {
	at, key := e.now+delay, e.nextKey()
	i := e.insert(at, key, e.curDom, fn, arg, u)
	if i == 0 {
		return Timer{}
	}
	return Timer{at: at, key: key, i: i}
}

// TimerPending reports whether the timer's event is still in the ring,
// waiting to fire. Its node tells: fire and CancelTimer clear a node's fn2
// before freeing it, and a node reused by a later event holds that event's
// key, and keys are unique. Position in (at, key) order cannot tell: a
// delay-0 event scheduled by a same-cycle event with a larger key is
// pending though it orders before the executing one.
func (e *Engine) TimerPending(t Timer) bool {
	if t.i == 0 {
		return false
	}
	n := &e.pool[t.i-1]
	return n.fn2 != nil && n.key == t.key
}

// CancelTimer takes the timer's event out of the queue before it fires,
// in O(1): it unlinks the ring node from its bucket and frees it. The
// event counts as fired (Cancelled), so a caller may cancel only an event
// that would have done nothing. It returns false, changing nothing, when
// the Timer is not cancellable or its event is not pending (TimerPending):
// it fired, is firing, or was cancelled already.
func (e *Engine) CancelTimer(t Timer) bool {
	if !e.TimerPending(t) {
		return false
	}
	pool := e.pool
	n := &pool[t.i-1]
	b := int(t.at) & ringMask
	prev, next := n.prev, n.next
	if prev == 0 {
		e.head[b] = next
	} else {
		pool[prev-1].next = next
	}
	if next == 0 {
		e.tail[b] = prev
	} else {
		pool[next-1].prev = prev
	}
	if prev == 0 && next == 0 {
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	n.fn2, n.arg = nil, nil
	n.next = e.free
	e.free = t.i
	e.nring--
	e.cancelled++
	return true
}

// ScheduleKeyed runs fn(arg, u) at cycle at in domain dom under a key drawn
// earlier by NextKeys, so the event takes the queue position it would have
// had if it had been scheduled when the key was drawn. at must not be in
// the past.
func (e *Engine) ScheduleKeyed(at Cycle, key uint64, dom int32, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, key, dom, fn, arg, u)
}

// NextKeys draws the tie-break keys the next n scheduled events would get,
// for ScheduleKeyed, and returns the first: the i-th key drawn is first+i.
// A key is the global schedule counter with one domain, or the current
// domain's counter prefixed with the domain index in domain mode.
func (e *Engine) NextKeys(n uint64) (first uint64) {
	if e.domSeq == nil {
		first = e.seq + 1
		e.seq += n
		return first
	}
	d := e.curDom
	first = uint64(d)<<48 | (e.domSeq[d] + 1)
	e.domSeq[d] += n
	return first
}

// nextKey draws the next tie-break key.
func (e *Engine) nextKey() uint64 { return e.NextKeys(1) }

// insert queues an event. It takes the event's fields, not an event, so a
// ring insert writes them straight into the node that link returns and
// builds no event value. It returns the ring node's 1-based pool index, or
// 0 for a far-heap event.
func (e *Engine) insert(at Cycle, key uint64, dom int32, fn HandlerFn, arg interface{}, u uint64) int32 {
	if at-e.now >= ringSize {
		e.pushFar(event{at: at, key: key, dom: dom, fn2: fn, arg: arg, u: u})
		return 0
	}
	n, i := e.link(at, key)
	n.at, n.key, n.dom, n.fn2, n.arg, n.u = at, key, dom, fn, arg, u
	return i
}

// SetDomains switches the engine to domain mode with nd domains. Call
// before any event is scheduled. One domain needs no mode switch: its
// keys are the plain schedule counter.
func (e *Engine) SetDomains(nd int) {
	if nd <= 1 {
		return
	}
	e.domSeq = make([]uint64, nd)
}

// SetCurDomain sets the scheduling domain used for events scheduled outside
// any event handler (machine setup); during execution Step maintains it.
func (e *Engine) SetCurDomain(d int32) { e.curDom = d }

// link takes a node from the pool and links it into the bucket of cycle at
// (due within ringSize cycles) in key order, returning it with only next
// and prev set, and its 1-based pool index. Same-cycle events mostly
// arrive in key order and append at the tail; a domain-prefixed key from
// another domain walks in from the head.
func (e *Engine) link(at Cycle, key uint64) (*event, int32) {
	i := e.free
	if i != 0 {
		e.free = e.pool[i-1].next
	} else {
		if e.pool == nil {
			e.pool = make([]event, 0, minPool)
		}
		e.pool = append(e.pool, event{})
		i = int32(len(e.pool))
	}
	pool := e.pool
	n := &pool[i-1]
	n.next, n.prev = 0, 0
	e.nring++
	b := int(at) & ringMask
	t := e.tail[b]
	switch {
	case t == 0:
		e.head[b], e.tail[b] = i, i
		e.occ[b>>6] |= 1 << (b & 63)
	case pool[t-1].key <= key:
		pool[t-1].next = i
		n.prev = t
		e.tail[b] = i
	default:
		prev, c := int32(0), e.head[b]
		for pool[c-1].key <= key {
			prev, c = c, pool[c-1].next
		}
		n.next, n.prev = c, prev
		pool[c-1].prev = i
		if prev == 0 {
			e.head[b] = i
		} else {
			pool[prev-1].next = i
		}
	}
	return n, i
}

// firstBucket returns the bucket of the earliest ring event, or -1 when
// the ring is empty. Ring events are due in [now, now+ringSize), so the
// first occupied bucket at or after now's, wrapping once, holds the
// earliest cycle: first the rest of now's 64-bucket bitmap word, then the
// words after it, ending with the low bits of now's own word.
func (e *Engine) firstBucket() int {
	s := int(e.now) & ringMask
	if m := e.occ[s>>6] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	w := s >> 6
	for j := 1; j <= ringWords; j++ {
		x := (w + j) & (ringWords - 1)
		if m := e.occ[x]; m != 0 {
			return x<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// peek returns the earliest pending event and where it lives — its ring
// bucket, or -1 for the far heap's root — or nil when the queue is empty.
// The event is valid until the next push or fire.
func (e *Engine) peek() (*event, int) {
	b := e.firstBucket()
	if len(e.far) > 0 && (b < 0 || e.far[0].before(&e.pool[e.head[b]-1])) {
		return &e.far[0], -1
	}
	if b < 0 {
		return nil, -1
	}
	return &e.pool[e.head[b]-1], b
}

// pushFar inserts ev into the far 4-ary heap (sift-up). The self-append
// reuses the backing array, so steady-state pushes allocate nothing.
func (e *Engine) pushFar(ev event) {
	e.far = append(e.far, ev)
	h := e.far
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popFar removes and returns the far heap's minimum (sift-down with a
// hole).
func (e *Engine) popFar() event {
	h := e.far
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn2/arg references held by the backing array
	h = h[:n]
	e.far = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
}

// Step executes the next event, advancing the clock to its cycle. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	ev, b := e.peek()
	if ev == nil {
		return false
	}
	e.fire(b)
	return true
}

// fire executes the event peek located at b: the head of ring bucket b,
// or the far heap's root when b < 0. A ring event runs in place. Every
// field the call needs is read from its node before the node is unlinked
// and pushed on the free list, because the free list is LIFO: the
// handler's first schedule reuses that very node. Only fn2 and arg are
// cleared, so the pool holds no reference to a fired event's payload.
func (e *Engine) fire(b int) {
	if b < 0 {
		ev := e.popFar()
		e.now, e.curDom, e.curKey = ev.at, ev.dom, ev.key
		e.fired++
		ev.fn2(ev.arg, ev.u)
		return
	}
	i := e.head[b]
	n := &e.pool[i-1]
	at, key, dom, next := n.at, n.key, n.dom, n.next
	fn, arg, u := n.fn2, n.arg, n.u
	n.fn2, n.arg = nil, nil
	n.next = e.free
	e.free = i
	e.nring--
	e.head[b] = next
	if next == 0 {
		e.tail[b] = 0
		e.occ[b>>6] &^= 1 << (b & 63)
	} else {
		e.pool[next-1].prev = 0
	}
	e.now, e.curDom, e.curKey = at, dom, key
	e.fired++
	fn(arg, u)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// StepLimitError reports that a bounded Drain exhausted its event budget
// with work still queued.
type StepLimitError struct {
	Limit   uint64 // the budget that was exhausted
	Now     Cycle  // simulated time at exhaustion
	Pending int    // events still queued
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("sim: step budget %d exhausted at cycle %d with %d events pending (livelock or undersized budget)",
		e.Limit, e.Now, e.Pending)
}

// NoProgressError reports that the watchdog saw too many events fire without
// a Progress() mark — the signature of a protocol livelock (events keep
// firing but no externally visible work completes).
type NoProgressError struct {
	Limit   uint64 // events allowed between Progress() marks
	Now     Cycle  // simulated time at the trip
	Pending int    // events still queued
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("sim: watchdog tripped at cycle %d: %d events fired without forward progress (%d pending)",
		e.Now, e.Limit, e.Pending)
}

// SetCancel attaches a Canceler polled by Drain; nil detaches. The
// caller may trip the Canceler from any goroutine (it is a single atomic
// word) — the engine notices at the next poll boundary and fails the run
// with a CanceledError.
func (e *Engine) SetCancel(c *Canceler) { e.cancel = c }

// SetProgressLimit arms the no-forward-progress watchdog: Drain fails
// once limit events fire without an intervening Progress() call. 0 disarms.
func (e *Engine) SetProgressLimit(limit uint64) {
	e.progressLimit = limit
	e.sinceProgress = 0
}

// Progress marks forward progress (e.g. a completed memory reference),
// resetting the watchdog.
func (e *Engine) Progress() { e.sinceProgress = 0 }

// cancelPollMask sets the cancellation poll period: Drain consults the
// Canceler once every mask+1 executed events. 256 events is a few
// microseconds of simulation — prompt for any caller — while keeping the
// atomic load off almost every step.
const cancelPollMask = 255

// checkStep is Drain's pre-step gate: the watchdog and the cancellation
// poll.
func (e *Engine) checkStep() error {
	if e.progressLimit > 0 && e.sinceProgress >= e.progressLimit {
		return &NoProgressError{Limit: e.progressLimit, Now: e.now, Pending: e.Pending()}
	}
	if e.cancel != nil && e.fired&cancelPollMask == 0 && e.cancel.Canceled() {
		return &CanceledError{Now: e.now, Pending: e.Pending()}
	}
	return nil
}

// RunUntil executes events with timestamps <= limit, then stops with the
// clock at limit (or, if limit is already past, where it was), even when
// later events remain queued.
func (e *Engine) RunUntil(limit Cycle) {
	for {
		ev, b := e.peek()
		if ev == nil || ev.at > limit {
			break
		}
		e.fire(b)
	}
	if e.now < limit {
		e.now, e.curKey = limit, 0
	}
}

// Drain executes queued events until the queue is empty, stopping at the
// first error. Before each event it checks the no-progress watchdog and
// the cancellation poll, then, when maxSteps is nonzero, the step budget:
// with maxSteps or more events fired (Fired) and work still queued, the
// run fails with a StepLimitError. When period is nonzero, observe runs
// before the first event at or after each multiple of period later than
// the clock at the call, with the clock moved to that event's cycle: every
// earlier event has fired and none at or after it. Multiples that no event
// separates share one call. observe must not schedule events. With
// neither a budget nor a period the loop does nothing per event beyond
// the watchdog and the poll.
func (e *Engine) Drain(maxSteps uint64, period Cycle, observe func()) error {
	if maxSteps == 0 && period == 0 {
		for {
			ev, b := e.peek()
			if ev == nil {
				return nil
			}
			if err := e.checkStep(); err != nil {
				return err
			}
			e.fire(b)
			e.sinceProgress++
		}
	}
	var next Cycle
	if period > 0 {
		next = (e.now/period + 1) * period
	}
	for {
		ev, b := e.peek()
		if ev == nil {
			return nil
		}
		if err := e.checkStep(); err != nil {
			return err
		}
		if maxSteps > 0 && e.Fired() >= maxSteps {
			return &StepLimitError{Limit: maxSteps, Now: e.now, Pending: e.Pending()}
		}
		if period > 0 && ev.at >= next {
			e.now, e.curKey = ev.at, 0
			observe()
			next = (ev.at/period + 1) * period
		}
		e.fire(b)
		e.sinceProgress++
	}
}
