package sim

import "testing"

// TestScheduleFnZeroAllocSteadyState is the allocation gate for the event
// kernel: once the queue's node pool has reached its working-set size,
// scheduling and firing prebound-handler events must not allocate at all.
// The event lives inline in the node pool and its state rides in (arg, u),
// so the only allocation source would be a regression (interface boxing, a
// closure, or pool growth) — exactly what this test exists to catch.
func TestScheduleFnZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func(_ interface{}, u uint64) { fired++ }

	// Pre-grow the node pool to steady state.
	for i := 0; i < 1024; i++ {
		e.ScheduleFn(Cycle(i&63), fn, nil, uint64(i))
	}
	e.Run()

	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleFn(Cycle(i&15), fn, nil, uint64(i))
		}
		for e.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state ScheduleFn/Step allocates %.2f allocs per 64-event batch, want 0", avg)
	}
}

// TestScheduleFnPointerArgZeroAlloc verifies that passing a pointer payload
// through arg does not allocate either (boxing a pointer into an interface
// is free; boxing a struct is not, which is why hot paths pre-box).
func TestScheduleFnPointerArgZeroAlloc(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	p := &payload{}
	fn := func(arg interface{}, _ uint64) { arg.(*payload).n++ }
	for i := 0; i < 1024; i++ {
		e.ScheduleFn(Cycle(i&63), fn, p, 0)
	}
	e.Run()

	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleFn(Cycle(i&15), fn, p, 0)
		}
		for e.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("pointer-arg ScheduleFn allocates %.2f per batch, want 0", avg)
	}
}
