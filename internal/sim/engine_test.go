package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

// call is the handler the tests schedule one-off closures with: it runs
// the func() riding in the event's arg.
func call(arg interface{}, _ uint64) { arg.(func())() }

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleFn(10, call, func() { got = append(got, 2) }, 0)
	e.ScheduleFn(5, call, func() { got = append(got, 1) }, 0)
	e.ScheduleFn(10, call, func() { got = append(got, 3) }, 0) // same cycle: schedule order
	e.ScheduleFn(20, call, func() { got = append(got, 4) }, 0)
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order got %v want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Fired() != 4 {
		t.Fatalf("fired = %d, want 4", e.Fired())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var seq []Cycle
	e.ScheduleFn(1, call, func() {
		seq = append(seq, e.Now())
		e.ScheduleFn(2, call, func() { seq = append(seq, e.Now()) }, 0)
		e.ScheduleFn(0, call, func() { seq = append(seq, e.Now()) }, 0) // same-cycle follow-up
	}, 0)
	e.Run()
	if len(seq) != 3 || seq[0] != 1 || seq[1] != 1 || seq[2] != 3 {
		t.Fatalf("seq = %v, want [1 1 3]", seq)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := Cycle(1); i <= 10; i++ {
		e.ScheduleFn(i*10, call, func() { fired++ }, 0)
	}
	e.RunUntil(50)
	if fired != 5 {
		t.Fatalf("fired %d events by cycle 50, want 5", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d total, want 10", fired)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(123)
	if e.Now() != 123 {
		t.Fatalf("idle RunUntil left clock at %d, want 123", e.Now())
	}
	e.RunUntil(e.Now() + 7)
	if e.Now() != 130 {
		t.Fatalf("second idle RunUntil left clock at %d, want 130", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleFn(10, call, func() {}, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleFnAt(5, call, func() {}, 0)
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestRandTaggedIndependence(t *testing.T) {
	a := NewRandTagged(7, "core0")
	b := NewRandTagged(7, "core1")
	identical := true
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("tagged streams with different tags are identical")
	}
	c := NewRandTagged(7, "core0")
	d := NewRandTagged(7, "core0")
	for i := 0; i < 64; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same tag+seed streams differ")
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", frac)
	}
}

func TestRandZipfSkewAndBounds(t *testing.T) {
	r := NewRand(3)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		v := r.Zipf(n, 0.8)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of bounds: %d", v)
		}
		counts[v]++
	}
	lowHalf, highHalf := 0, 0
	for i, c := range counts {
		if i < n/2 {
			lowHalf += c
		} else {
			highHalf += c
		}
	}
	if lowHalf <= highHalf {
		t.Fatalf("Zipf not skewed toward low ranks: low=%d high=%d", lowHalf, highHalf)
	}
}

func TestEngineManyEventsStaySorted(t *testing.T) {
	e := NewEngine()
	r := NewRand(77)
	last := Cycle(0)
	ok := true
	for i := 0; i < 5000; i++ {
		at := Cycle(r.Intn(100000))
		e.ScheduleFnAt(at, call, func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		}, 0)
	}
	e.Run()
	if !ok {
		t.Fatal("events fired out of time order")
	}
}

// TestDrain pins the checked drain. The observer runs before the first
// event at or after each multiple of the period later than the clock at
// the call, with the clock moved to that event's cycle, every earlier event
// fired and none at or after it; multiples no event separates share one
// call. A step budget counts Fired, parked deliveries included, and trips
// with work still queued.
func TestDrain(t *testing.T) {
	ats := []Cycle{3, 4, 9, 30, 31, 32, 80}
	build := func() (*Engine, *[]Cycle) {
		e := NewEngine()
		var fired []Cycle
		for _, at := range ats {
			e.ScheduleFnAt(at, call, func() { fired = append(fired, e.Now()) }, 0)
		}
		return e, &fired
	}
	for _, c := range []struct {
		period, from Cycle
		want         []Cycle
	}{
		{10, 0, []Cycle{30, 80}},
		{4, 0, []Cycle{4, 9, 30, 32, 80}},
		{10, 35, []Cycle{80}},
		{100, 0, nil},
	} {
		e, fired := build()
		e.RunUntil(c.from)
		var seen []Cycle
		err := e.Drain(0, c.period, func() {
			now := e.Now()
			if e.CurKey() != 0 {
				t.Fatalf("period %d: observer at %d with key %d, want the start of the cycle", c.period, now, e.CurKey())
			}
			below := 0
			for _, at := range ats {
				if at < now {
					below++
				}
			}
			if len(*fired) != below || below > 0 && (*fired)[below-1] >= now {
				t.Fatalf("period %d: observer at %d after events %v", c.period, now, *fired)
			}
			seen = append(seen, now)
		})
		if err != nil || len(*fired) != len(ats) || len(seen) != len(c.want) {
			t.Fatalf("period %d from %d: Drain = %v, fired %v, observed at %v; want nil, all %d, observed at %v",
				c.period, c.from, err, *fired, seen, len(ats), c.want)
		}
		for i := range seen {
			if seen[i] != c.want[i] {
				t.Fatalf("period %d from %d: observed at %v, want %v", c.period, c.from, seen, c.want)
			}
		}
	}

	e, fired := build()
	err := e.Drain(3, 0, nil)
	var sl *StepLimitError
	if !errors.As(err, &sl) || sl.Limit != 3 || sl.Now != 9 || sl.Pending != 4 || len(*fired) != 3 {
		t.Fatalf("Drain(3) = %v after %d events; want a StepLimitError at cycle 9 with 4 pending after 3", err, len(*fired))
	}

	e, fired = build()
	e.Park(1) // a parked delivery counts as fired
	if err := e.Drain(3, 10, func() {}); !errors.As(err, &sl) || sl.Now != 4 || len(*fired) != 2 {
		t.Fatalf("Drain(3) after a Park = %v after %d events; want a StepLimitError at cycle 4 after 2", err, len(*fired))
	}

	e, fired = build()
	if err := e.Drain(uint64(len(ats)), 0, nil); err != nil || len(*fired) != len(ats) {
		t.Fatalf("Drain(%d) = %v after %d events; a budget the run fits in must drain it", len(ats), err, len(*fired))
	}
}
