package sim

import (
	"testing"
	"unsafe"
)

// TestEventIsOneCacheLine pins the pool node at 64 bytes, and checks that
// the pool's backing array starts on a 64-byte boundary at every size it
// grows through, so no node straddles two cache lines.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("event is %d bytes, want 64", got)
	}
	e := NewEngine()
	fn := func(interface{}, uint64) {}
	for i := 0; i < 5000; i++ {
		e.ScheduleFn(Cycle(i%1000), fn, nil, 0)
		if p := uintptr(unsafe.Pointer(&e.pool[0])); p%64 != 0 {
			t.Fatalf("pool of %d nodes (cap %d) starts at %#x, not 64-byte aligned", len(e.pool), cap(e.pool), p)
		}
	}
}

// TestCancelTimer cancels the only, head, middle and tail node of a
// bucket, and checks the cases CancelTimer must refuse: a timer already
// cancelled, firing or fired, a stale Timer whose node was reused, a
// far-heap timer, the zero Timer and a timer scheduled into another
// engine's domain. A pending timer is cancelled even where its (at, key)
// orders before the executing event.
func TestCancelTimer(t *testing.T) {
	e := NewEngine()
	var order []uint64
	record := func(_ interface{}, u uint64) { order = append(order, u) }
	occupied := func(at Cycle) bool {
		b := int(at) & ringMask
		return e.occ[b>>6]&(1<<(b&63)) != 0
	}

	// Bucket 10 holds timers 1, 3, 5 around plain events 2 and 4; bucket
	// 20 holds timer 6 alone.
	t1 := e.ScheduleTimer(10, record, nil, 1)
	e.ScheduleFn(10, record, nil, 2)
	t3 := e.ScheduleTimer(10, record, nil, 3)
	e.ScheduleFn(10, record, nil, 4)
	t5 := e.ScheduleTimer(10, record, nil, 5)
	t6 := e.ScheduleTimer(20, record, nil, 6)
	for i, tm := range []Timer{t1, t3, t5, t6} {
		if !e.TimerPending(tm) {
			t.Fatalf("ring timer %d is not pending", i)
		}
	}
	if t1.At() != 10 || t6.At() != 20 || t1.Key() >= t3.Key() {
		t.Fatalf("timers name (%d, %d), (%d, %d); want cycles 10 and 20 in key order", t1.At(), t1.Key(), t6.At(), t6.Key())
	}
	for _, c := range []struct {
		name string
		tm   Timer
	}{{"middle", t3}, {"head", t1}, {"tail", t5}} {
		if !e.CancelTimer(c.tm) {
			t.Fatalf("cancelling the %s node failed", c.name)
		}
		if !occupied(10) {
			t.Fatalf("bucket 10 marked empty after cancelling its %s node", c.name)
		}
	}
	if !e.CancelTimer(t6) {
		t.Fatal("cancelling the only node failed")
	}
	if occupied(20) {
		t.Fatal("bucket 20 still marked occupied after its only node was cancelled")
	}
	if e.CancelTimer(t3) {
		t.Fatal("a timer was cancelled twice")
	}
	if e.Pending() != 2 || e.Cancelled() != 4 {
		t.Fatalf("%d pending, %d cancelled; want 2, 4", e.Pending(), e.Cancelled())
	}

	// A cancelled node is reused by the next schedule, ahead of pool
	// growth, and the stale Timer does not cancel its new event.
	size := len(e.pool)
	t7 := e.ScheduleTimer(10, record, nil, 7)
	if len(e.pool) != size || t7.i != t6.i {
		t.Fatalf("the next timer took node %d of a pool of %d (was %d); want cancelled node %d reused",
			t7.i, len(e.pool), size, t6.i)
	}
	if e.CancelTimer(t6) {
		t.Fatal("a stale Timer cancelled the event that reused its node")
	}

	// A timer cannot cancel itself while it fires.
	var t8 Timer
	t8 = e.ScheduleTimer(15, func(_ interface{}, u uint64) {
		order = append(order, u)
		if e.CancelTimer(t8) {
			t.Fatal("a timer cancelled itself while firing")
		}
	}, nil, 8)
	far := e.ScheduleTimer(ringSize, record, nil, 9)
	if far != (Timer{}) || e.CancelTimer(far) {
		t.Fatal("a far-heap timer was cancellable")
	}
	if e.CancelTimer(Timer{}) {
		t.Fatal("the zero Timer cancelled something")
	}
	e.RunUntil(12) // fires t7 and moves the clock past its (at, key)
	if e.CancelTimer(t7) {
		t.Fatal("a timer whose (at, key) passed was cancelled")
	}
	e.Run()
	want := []uint64{2, 4, 7, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if e.Fired() != uint64(len(want))+4 {
		t.Fatalf("Fired() = %d, want %d executed + 4 cancelled", e.Fired(), len(want))
	}

	// Keys from lower domains walk in from the head: B goes in before A,
	// then C between them. Cancelling A must follow the back link C's
	// insert left it, so B and C still fire, in key order.
	k := NewEngine()
	k.SetDomains(3)
	k.SetCurDomain(2)
	tA := k.ScheduleTimer(10, record, nil, 1)
	k.SetCurDomain(0)
	k.ScheduleFn(10, record, nil, 2)
	k.SetCurDomain(1)
	tC := k.ScheduleTimer(10, record, nil, 3)
	if !k.CancelTimer(tA) {
		t.Fatal("cancelling the tail behind a head and a middle insert failed")
	}
	order = order[:0]
	k.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 || k.CancelTimer(tC) {
		t.Fatalf("after cancelling A: fired %v, want [2 3]", order)
	}

	// In domain mode a handler running under a key from domain 1 schedules
	// a same-cycle timer keyed in domain 0: it orders before the executing
	// event, yet it is pending, and cancelling it must work.
	m := NewEngine()
	m.SetDomains(2)
	m.SetCurDomain(1)
	var early Timer
	m.ScheduleFnAtDom(5, 0, func(interface{}, uint64) {
		early = m.ScheduleTimer(0, record, nil, 12)
		if !m.Passed(early.At(), early.Key()) || !m.TimerPending(early) || !m.CancelTimer(early) {
			t.Fatal("a pending same-cycle timer keyed before the executing event was not cancelled")
		}
	}, nil, 0)
	order = order[:0]
	m.Run()
	if len(order) != 0 || m.Cancelled() != 1 {
		t.Fatalf("fired %v, cancelled %d; want nothing fired, 1 cancelled", order, m.Cancelled())
	}
}

// TestScheduleCancelTimerZeroAlloc is the allocation gate for timers:
// once the pool is warm, scheduling a timer, cancelling it and firing the
// survivors allocate nothing.
func TestScheduleCancelTimerZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func(interface{}, uint64) {}
	var ts [64]Timer
	batch := func() {
		for i := range ts {
			ts[i] = e.ScheduleTimer(Cycle(400+i&15), fn, nil, uint64(i))
		}
		for i := 0; i < len(ts); i += 2 {
			e.CancelTimer(ts[i])
		}
		e.Run()
	}
	batch()
	avg := testing.AllocsPerRun(100, batch)
	if avg != 0 {
		t.Fatalf("ScheduleTimer/CancelTimer allocate %.2f allocs per 64-timer batch, want 0", avg)
	}
	// One batch of our own, AllocsPerRun's warm-up run and its 100.
	if e.Cancelled() != 102*32 {
		t.Fatalf("%d timers cancelled, want %d", e.Cancelled(), 102*32)
	}
}
