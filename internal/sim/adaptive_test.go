package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// runPingPong drives a synthetic 4-domain workload on a ShardedEngine:
// each domain executes a chain of local events and every fifth step
// deposits a cross-domain event into the next domain, honoring the
// lookahead contract (cross arrivals land at now+L or later). Every
// domain's handler appends (cycle, tag) records to that domain's log, so
// the logs are a complete per-domain execution trace: any reordering
// anywhere shows up as a log difference.
func runPingPong(t *testing.T, domShard []int, disable bool, obs *[]Cycle) ([][]uint64, uint64, SyncStats) {
	t.Helper()
	const L = 6
	const steps = 400
	const crossMark = uint64(1) << 40
	se := NewSharded(domShard, L)
	se.DisableElision = disable
	if obs != nil {
		se.OnWindow = func(now Cycle) error {
			*obs = append(*obs, now)
			return nil
		}
	}
	nd := len(domShard)
	type domState struct {
		eng *Engine
		d   int
		log []uint64
	}
	doms := make([]*domState, nd)
	for d := range doms {
		doms[d] = &domState{eng: se.Eng(domShard[d]), d: d}
	}
	var step HandlerFn
	step = func(arg interface{}, u uint64) {
		ad := arg.(*domState)
		now := ad.eng.Now()
		ad.log = append(ad.log, uint64(now)<<20|(u&0xfffff))
		if u&crossMark != 0 || u >= steps {
			return
		}
		ad.eng.ScheduleFnAtDom(now+1+Cycle(u%3), int32(ad.d), step, ad, u+1)
		if u%5 == 2 {
			dst := (ad.d + 1) % nd
			ad.eng.ScheduleFnAtDom(now+L+Cycle(u%4), int32(dst), step, doms[dst], crossMark|u)
		}
	}
	for d := range doms {
		doms[d].eng.SetCurDomain(int32(d))
		doms[d].eng.ScheduleFnAt(Cycle(d), step, doms[d], 0)
	}
	if err := se.Run(); err != nil {
		t.Fatalf("run(domShard=%v): %v", domShard, err)
	}
	logs := make([][]uint64, nd)
	for d := range doms {
		logs[d] = doms[d].log
	}
	return logs, se.Fired(), se.Telemetry()
}

// TestAdaptiveSyntheticBitIdentical pins the engine-level guarantee under
// both synchronization modes: the per-domain execution traces of the
// free-running adaptive protocol and of the fully-barriered windowed
// protocol are identical to the serial single-shard run, for K in {2, 4}.
// It also pins the mode telemetry: adaptive runs never wait on a barrier,
// fully-barriered runs never elide one.
func TestAdaptiveSyntheticBitIdentical(t *testing.T) {
	serialLogs, serialFired, serialTele := runPingPong(t, []int{0, 0, 0, 0}, false, nil)
	if serialFired == 0 || serialTele.BarrierWaits != 0 {
		t.Fatalf("serial run: fired=%d telemetry=%+v", serialFired, serialTele)
	}
	cases := []struct {
		name     string
		domShard []int
		disable  bool
	}{
		{"k2-adaptive", []int{0, 1, 0, 1}, false},
		{"k2-barriered", []int{0, 1, 0, 1}, true},
		{"k4-adaptive", []int{0, 1, 2, 3}, false},
		{"k4-barriered", []int{0, 1, 2, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logs, fired, tele := runPingPong(t, tc.domShard, tc.disable, nil)
			if fired != serialFired {
				t.Errorf("fired %d, serial %d", fired, serialFired)
			}
			if !reflect.DeepEqual(logs, serialLogs) {
				for d := range logs {
					if !reflect.DeepEqual(logs[d], serialLogs[d]) {
						t.Errorf("domain %d trace diverged (len %d vs %d)",
							d, len(logs[d]), len(serialLogs[d]))
					}
				}
			}
			if tc.disable {
				if tele.ElidedBarriers != 0 {
					t.Errorf("barriered mode elided %d barriers", tele.ElidedBarriers)
				}
				if tele.BarrierWaits == 0 {
					t.Errorf("barriered mode reported no barrier waits: %+v", tele)
				}
			} else {
				if tele.BarrierWaits != 0 {
					t.Errorf("adaptive mode waited on %d barriers", tele.BarrierWaits)
				}
				if tele.Windows == 0 || tele.ElidedBarriers == 0 {
					t.Errorf("adaptive telemetry empty: %+v", tele)
				}
			}
			if tele.CrossDeposits == 0 {
				t.Errorf("workload deposited nothing across shards: %+v", tele)
			}
		})
	}
}

// TestWindowedBoundariesShardInvariant pins the windowed protocol's
// observable contract: the sequence of OnWindow callback cycles — what the
// invariant checker sees — is identical for every shard count, with and
// without quiet-window barrier elision. (An OnWindow observer always forces
// the windowed protocol; elision only changes which barrier runs the fold.)
func TestWindowedBoundariesShardInvariant(t *testing.T) {
	var ref []Cycle
	runPingPong(t, []int{0, 0, 0, 0}, false, &ref)
	if len(ref) == 0 {
		t.Fatal("observer never ran")
	}
	for _, tc := range []struct {
		name     string
		domShard []int
		disable  bool
	}{
		{"k2", []int{0, 1, 0, 1}, false},
		{"k2-barriered", []int{0, 1, 0, 1}, true},
		{"k4", []int{0, 1, 2, 3}, false},
		{"k4-barriered", []int{0, 1, 2, 3}, true},
	} {
		var got []Cycle
		runPingPong(t, tc.domShard, tc.disable, &got)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: window boundary sequence diverged (len %d vs %d)",
				tc.name, len(got), len(ref))
		}
	}
}

// TestWindowedQuietElision pins barrier-B elision in isolation: a sharded
// workload with NO cross-domain traffic under an OnWindow observer must
// elide the exchange on every advancing window (one barrier per window),
// and disabling elision must restore the two-barrier protocol with the
// same observed boundaries.
func TestWindowedQuietElision(t *testing.T) {
	run := func(disable bool) ([]Cycle, SyncStats) {
		se := NewSharded([]int{0, 1, 2, 3}, 6)
		se.DisableElision = disable
		var obs []Cycle
		se.OnWindow = func(now Cycle) error {
			obs = append(obs, now)
			return nil
		}
		var step HandlerFn
		type local struct {
			eng *Engine
			d   int
		}
		step = func(arg interface{}, u uint64) {
			ls := arg.(*local)
			if u == 0 {
				return
			}
			ls.eng.ScheduleFnAtDom(ls.eng.Now()+2, int32(ls.d), step, ls, u-1)
		}
		for d := 0; d < 4; d++ {
			ls := &local{eng: se.Eng(d), d: d}
			ls.eng.SetCurDomain(int32(d))
			ls.eng.ScheduleFnAt(0, step, ls, 50)
		}
		if err := se.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return obs, se.Telemetry()
	}
	obsE, teleE := run(false)
	obsB, teleB := run(true)
	if !reflect.DeepEqual(obsE, obsB) {
		t.Errorf("elision changed the observed boundaries: %d vs %d windows", len(obsE), len(obsB))
	}
	if teleE.CrossDeposits != 0 || teleB.CrossDeposits != 0 {
		t.Fatalf("workload unexpectedly deposited across shards: %+v %+v", teleE, teleB)
	}
	if teleE.ElidedBarriers == 0 || teleE.ElidedBarriers < teleE.Windows {
		t.Errorf("quiet windows not all elided: %+v", teleE)
	}
	if teleB.ElidedBarriers != 0 {
		t.Errorf("disabled elision still elided: %+v", teleB)
	}
	if teleB.BarrierWaits <= teleE.BarrierWaits {
		t.Errorf("elision did not reduce barrier waits: %d vs %d",
			teleE.BarrierWaits, teleB.BarrierWaits)
	}
}

// resetQueue empties the queue, keeping the pool's and far heap's backing
// arrays for reuse and dropping their fn2/arg references.
func (e *Engine) resetQueue() {
	clear(e.pool)
	e.pool = e.pool[:0]
	e.free, e.nring = 0, 0
	e.head, e.tail, e.occ = [ringSize]int32{}, [ringSize]int32{}, [ringWords]uint64{}
	clear(e.far)
	e.far = e.far[:0]
}

// TestMailboxZeroAllocSteadyState is the allocation gate for the deposit
// path: once a mailbox's backing array (and the destination queue) have
// reached their working-set size, put and a one-pass batch drain must not
// allocate at all.
func TestMailboxZeroAllocSteadyState(t *testing.T) {
	var mb mailbox
	eng := NewEngine()
	fn := func(_ interface{}, _ uint64) {}

	// Pre-grow the mailbox slice and the queue's node pool.
	for i := 0; i < 512; i++ {
		mb.put(event{at: Cycle(i), key: uint64(i), fn2: fn})
	}
	mb.drain(eng)
	eng.resetQueue()

	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			mb.put(event{at: Cycle(i), key: uint64(i), fn2: fn})
		}
		if got := mb.drain(eng); got != 64 {
			t.Fatalf("drain returned %d, want 64", got)
		}
		eng.resetQueue()
	})
	if avg != 0 {
		t.Fatalf("steady-state put+drain allocates %.2f allocs per 64-event batch, want 0", avg)
	}
}

// TestMailboxDrainEmptyIsCheap pins the empty-box fast path: draining a
// box that was never written returns zero without taking the lock (the
// atomic length probe short-circuits), so idle shards polling K-1 empty
// mailboxes per round do no spinlock work.
func TestMailboxDrainEmptyIsCheap(t *testing.T) {
	var mb mailbox
	eng := NewEngine()
	mb.lock.Store(1) // a drain that took the lock would spin forever
	for i := 0; i < 3; i++ {
		if got := mb.drain(eng); got != 0 {
			t.Fatalf("empty drain returned %d", got)
		}
	}
	mb.lock.Store(0)
	mb.put(event{at: 1, key: 1})
	if got := mb.drain(eng); got != 1 {
		t.Fatalf("drain after put returned %d, want 1", got)
	}
	if got := mb.drain(eng); got != 0 {
		t.Fatalf("second drain returned %d, want 0", got)
	}
}

var _ = fmt.Sprintf // keep fmt imported for debugging edits
