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

// HandlerFn is the prebound-handler form of an event: a function created
// once (at component construction) whose per-event state rides in the
// event itself as (arg, u). Scheduling one allocates nothing.
type HandlerFn func(arg interface{}, u uint64)

// event is one queue entry. Exactly one of fn / fn2 is set: fn is the
// closure form (allocates a closure at the call site), fn2 the prebound
// form (zero-alloc). Events live inline in the queue's node pool and far
// heap — there is no per-event heap object and no interface boxing on push
// or pop. next packs beside dom so an event stays 64 bytes.
type event struct {
	at   Cycle
	key  uint64 // tie-breaker: schedule order (domain-prefixed in domain mode)
	dom  int32  // executing domain (0 in single-domain engines)
	next int32  // 1-based pool index of the next event in its bucket, 0 = none
	fn   func()
	fn2  HandlerFn
	arg  interface{}
	u    uint64
}

// before is the strict total order on events: cycle, then schedule order.
// In domain mode the key embeds the scheduling domain in its high bits, so
// same-cycle ties break by (scheduling domain, per-domain schedule order) —
// an order every shard can reproduce locally, making parallel execution
// bit-identical to serial for the same domain count.
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
	// schedule-order keys are drawn from per-domain counters, so the tie
	// order is independent of how domains are spread over engines. domSeq
	// is nil in single-domain (legacy) mode, where key == seq exactly.
	domSeq  []uint64
	curDom  int32
	local   []bool         // local[d]: domain d executes on this engine
	deposit func(ev event) // sink for events bound to non-local domains

	// No-forward-progress watchdog: when progressLimit > 0, StepChecked
	// fails after that many events fire without a Progress() mark, turning a
	// protocol livelock into a diagnosable error instead of a hang.
	progressLimit uint64
	sinceProgress uint64

	// cancel, when non-nil, is polled by StepChecked every cancelPollMask+1
	// events: a tripped Canceler turns into a CanceledError at the next poll,
	// so a dead client or an admin abort stops the run promptly without
	// adding per-event cost to the uncancelled hot path.
	cancel *Canceler
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.nring + len(e.far) }

// schedulePastPanic is the cold failure path shared by the Schedule
// variants. It exists so the fmt call (which allocates) stays out of the
// annotated hot functions.
func schedulePastPanic(at, now Cycle) {
	panic(fmt.Sprintf("sim: schedule at %d before now %d", at, now))
}

// Schedule runs fn after delay cycles (delay 0 means later this cycle,
// after all currently queued same-cycle events).
//
//vsnoop:hotpath
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute cycle, which must not be in the
// past.
//
//vsnoop:hotpath
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.nextKey(), e.curDom, fn, nil, nil, 0)
}

// ScheduleFn runs fn(arg, u) after delay cycles. It is the zero-alloc
// fast path for hot schedulers: fn is prebound once at construction time
// and the per-event state travels in (arg, u), so nothing escapes to the
// heap (arg should be nil, an already-boxed interface value, or a
// pointer; u packs any scalar state).
//
//vsnoop:hotpath
func (e *Engine) ScheduleFn(delay Cycle, fn HandlerFn, arg interface{}, u uint64) {
	e.ScheduleFnAt(e.now+delay, fn, arg, u)
}

// ScheduleFnAt is ScheduleFn with an absolute cycle, which must not be in
// the past.
//
//vsnoop:hotpath
func (e *Engine) ScheduleFnAt(at Cycle, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.nextKey(), e.curDom, nil, fn, arg, u)
}

// ScheduleFnAtDom is ScheduleFnAt with an explicit executing domain: the
// event fires in domain dom's event stream (possibly on another engine when
// domains are sharded) while its tie-break key still comes from the current
// scheduling domain's counter, keeping the order reproducible for any
// domain-to-engine assignment. The mesh uses it for cross-domain delivery.
//
//vsnoop:hotpath
func (e *Engine) ScheduleFnAtDom(at Cycle, dom int32, fn HandlerFn, arg interface{}, u uint64) {
	if at < e.now {
		schedulePastPanic(at, e.now)
	}
	e.insert(at, e.nextKey(), dom, nil, fn, arg, u)
}

// nextKey draws the next tie-break key: the global schedule counter in
// single-domain mode (key == legacy seq, bit-identical ordering), or the
// current domain's counter prefixed with the domain index in domain mode.
//
//vsnoop:hotpath
func (e *Engine) nextKey() uint64 {
	if e.domSeq == nil {
		e.seq++
		return e.seq
	}
	d := e.curDom
	e.domSeq[d]++
	return uint64(d)<<48 | e.domSeq[d]
}

// insert routes an event to the local queue, or to the deposit sink when its
// executing domain lives on another engine. It takes the event's fields,
// not an event, so they travel in registers: an event plus the receiver is
// one word more than the register ABI passes.
//
//vsnoop:hotpath
func (e *Engine) insert(at Cycle, key uint64, dom int32, fn func(), fn2 HandlerFn, arg interface{}, u uint64) {
	if e.local != nil && !e.local[dom] {
		e.deposit(event{at: at, key: key, dom: dom, fn: fn, fn2: fn2, arg: arg, u: u})
		return
	}
	if at-e.now >= ringSize {
		e.pushFar(event{at: at, key: key, dom: dom, fn: fn, fn2: fn2, arg: arg, u: u})
		return
	}
	n := e.link(at, key)
	n.at, n.key, n.dom, n.fn, n.fn2, n.arg, n.u = at, key, dom, fn, fn2, arg, u
}

// SetDomains switches the engine to domain mode with nd domains. local
// marks the domains this engine executes (nil = all); deposit receives
// events bound elsewhere. Call before any event is scheduled.
func (e *Engine) SetDomains(nd int, local []bool, deposit func(ev event)) {
	if nd <= 1 {
		return
	}
	e.domSeq = make([]uint64, nd)
	e.local = local
	e.deposit = deposit
}

// SetCurDomain sets the scheduling domain used for events scheduled outside
// any event handler (machine setup); during execution Step maintains it.
func (e *Engine) SetCurDomain(d int32) { e.curDom = d }

// push inserts a whole event into the local queue: a drained deposit or a
// restored checkpoint entry. Like insert it sends an event due ringSize or
// more cycles ahead to far; so does the unsigned distance of an event due
// before now, which no correct caller produces, and before still orders it.
//
//vsnoop:hotpath
func (e *Engine) push(ev *event) {
	if ev.at-e.now >= ringSize {
		e.pushFar(*ev)
		return
	}
	n := e.link(ev.at, ev.key)
	next := n.next
	*n = *ev
	n.next = next
}

// link takes a node from the pool and links it into the bucket of cycle at
// (due within ringSize cycles) in key order, returning it with only next
// set. Same-cycle events mostly arrive in key order and append at the tail;
// a domain-prefixed key from another domain walks in from the head.
//
//vsnoop:hotpath
func (e *Engine) link(at Cycle, key uint64) *event {
	i := e.free
	if i != 0 {
		e.free = e.pool[i-1].next
	} else {
		e.pool = append(e.pool, event{})
		i = int32(len(e.pool))
	}
	pool := e.pool
	n := &pool[i-1]
	n.next = 0
	e.nring++
	b := int(at) & ringMask
	t := e.tail[b]
	switch {
	case t == 0:
		e.head[b], e.tail[b] = i, i
		e.occ[b>>6] |= 1 << (b & 63)
	case pool[t-1].key <= key:
		pool[t-1].next = i
		e.tail[b] = i
	default:
		prev, c := int32(0), e.head[b]
		for pool[c-1].key <= key {
			prev, c = c, pool[c-1].next
		}
		n.next = c
		if prev == 0 {
			e.head[b] = i
		} else {
			pool[prev-1].next = i
		}
	}
	return n
}

// firstBucket returns the bucket of the earliest ring event, or -1 when
// the ring is empty. Ring events are due in [now, now+ringSize), so the
// first occupied bucket at or after now's, wrapping once, holds the
// earliest cycle: first the rest of now's 64-bucket bitmap word, then the
// words after it, ending with the low bits of now's own word.
//
//vsnoop:hotpath
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
// The event is valid until the next push or take.
//
//vsnoop:hotpath
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

// take removes and returns the event peek located at b, returning its
// pool node to the free list.
//
//vsnoop:hotpath
func (e *Engine) take(b int) event {
	if b < 0 {
		return e.popFar()
	}
	i := e.head[b]
	n := &e.pool[i-1]
	ev := *n
	*n = event{next: e.free} // release fn/arg references held by the pool
	e.free = i
	e.nring--
	e.head[b] = ev.next
	if ev.next == 0 {
		e.tail[b] = 0
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	return ev
}

// pushFar inserts ev into the far 4-ary heap (sift-up). The self-append
// reuses the backing array, so steady-state pushes allocate nothing.
//
//vsnoop:hotpath
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
//
//vsnoop:hotpath
func (e *Engine) popFar() event {
	h := e.far
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/arg references held by the backing array
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

// appendPending appends every pending event to dst in no particular order
// (firing order depends only on (at, key), so a re-push restores it).
func (e *Engine) appendPending(dst []event) []event {
	for w, m := range e.occ {
		for ; m != 0; m &= m - 1 {
			b := w<<6 | bits.TrailingZeros64(m)
			for i := e.head[b]; i != 0; i = e.pool[i-1].next {
				dst = append(dst, e.pool[i-1])
				dst[len(dst)-1].next = 0
			}
		}
	}
	return append(dst, e.far...)
}

// resetQueue empties the queue, keeping the pool's and far heap's backing
// arrays for reuse and dropping their fn/arg references.
func (e *Engine) resetQueue() {
	clear(e.pool)
	e.pool = e.pool[:0]
	e.free, e.nring = 0, 0
	e.head, e.tail, e.occ = [ringSize]int32{}, [ringSize]int32{}, [ringWords]uint64{}
	clear(e.far)
	e.far = e.far[:0]
}

// Step executes the next event, advancing the clock to its cycle. It
// returns false when no events remain.
//
//vsnoop:hotpath
func (e *Engine) Step() bool {
	ev, b := e.peek()
	if ev == nil {
		return false
	}
	e.fire(b)
	return true
}

// fire executes the event peek located at b.
//
//vsnoop:hotpath
func (e *Engine) fire(b int) {
	ev := e.take(b)
	e.now = ev.at
	e.curDom = ev.dom
	e.fired++
	if ev.fn2 != nil {
		ev.fn2(ev.arg, ev.u)
	} else {
		ev.fn()
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// StepLimitError reports that a bounded run exhausted its event budget with
// work still queued.
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

// SetCancel attaches a Canceler polled by StepChecked; nil detaches. The
// caller may trip the Canceler from any goroutine (it is a single atomic
// word) — the engine notices at the next poll boundary and fails the run
// with a CanceledError.
func (e *Engine) SetCancel(c *Canceler) { e.cancel = c }

// SetProgressLimit arms the no-forward-progress watchdog: StepChecked fails
// once limit events fire without an intervening Progress() call. 0 disarms.
func (e *Engine) SetProgressLimit(limit uint64) {
	e.progressLimit = limit
	e.sinceProgress = 0
}

// Progress marks forward progress (e.g. a completed memory reference),
// resetting the watchdog.
func (e *Engine) Progress() { e.sinceProgress = 0 }

// cancelPollMask sets the cancellation poll period: StepChecked consults
// the Canceler once every mask+1 executed events. 256 events is a few
// microseconds of simulation — prompt for any caller — while keeping the
// atomic load off almost every step.
const cancelPollMask = 255

// StepChecked executes the next event like Step, but fails with a
// NoProgressError when the watchdog limit is exceeded or a CanceledError
// when an attached Canceler has tripped.
func (e *Engine) StepChecked() (bool, error) {
	if err := e.checkStep(); err != nil {
		return false, err
	}
	if !e.Step() {
		return false, nil
	}
	e.sinceProgress++
	return true, nil
}

// checkStep is StepChecked's pre-step gate: the watchdog and the
// cancellation poll.
func (e *Engine) checkStep() error {
	if e.progressLimit > 0 && e.sinceProgress >= e.progressLimit {
		return &NoProgressError{Limit: e.progressLimit, Now: e.now, Pending: e.Pending()}
	}
	if e.cancel != nil && e.fired&cancelPollMask == 0 && e.cancel.Canceled() {
		return &CanceledError{Now: e.now, Pending: e.Pending()}
	}
	return nil
}

// RunBoundedSteps executes events until the queue is empty, failing with a
// StepLimitError if more than max events would be needed (or a
// NoProgressError if the watchdog trips first). It is the hang-proof
// replacement for Run in command-line drivers.
func (e *Engine) RunBoundedSteps(max uint64) error {
	for i := uint64(0); i < max; i++ {
		ok, err := e.StepChecked()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if e.Pending() == 0 {
		return nil
	}
	return &StepLimitError{Limit: max, Now: e.now, Pending: e.Pending()}
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
		e.now = limit
	}
}

// RunFor executes events for the next d cycles (relative RunUntil).
func (e *Engine) RunFor(d Cycle) { e.RunUntil(e.now + d) }

// NextAt returns the timestamp of the earliest pending event; ok is false
// when the queue is empty. Conservative window synchronization uses it to
// compute the global lower bound on future work.
func (e *Engine) NextAt() (Cycle, bool) {
	ev, _ := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// RunWindow executes events with timestamps strictly below wend under the
// watchdog, leaving later events queued. It is one shard's work for one
// conservative synchronization window.
func (e *Engine) RunWindow(wend Cycle) error {
	for {
		ev, b := e.peek()
		if ev == nil || ev.at >= wend {
			return nil
		}
		if err := e.checkStep(); err != nil {
			return err
		}
		e.fire(b)
		e.sinceProgress++
	}
}
