package sim

import (
	"runtime"
	"sync/atomic"
)

// This file implements the free-running adaptive synchronization mode of the
// ShardedEngine: a conservative null-message protocol (Chandy-Misra-Bryant
// with lookahead) over the per-shard event queues, with no barriers at all.
//
// Each shard publishes an *earliest output time* (EOT): a monotone lower
// bound on the timestamp of any cross-shard event it may still deposit,
//
//	eot[s] = L_s + min(next local event of s, min over s' != s of eot[s'])
//
// where L_s is shard s's minimum cross-domain mesh latency (the partition
// horizon exposed by mesh.Partition). A shard may freely execute every local
// event strictly below its *earliest input time* EIT_s = min_{s'!=s} eot[s'],
// because any deposit still unseen must arrive at or beyond that bound.
// Windows therefore stretch with the actual distance to pending cross-domain
// work — thousands of cycles when domains run independently — instead of
// being fixed at the worst-case mesh latency, and no shard ever waits for a
// laggard unless the timestamp math forces it to.
//
// Why skipping every barrier cannot reorder an observable event: the queue
// pop order of one shard is a strict total order on (cycle, domain-seq key),
// a pure function of the event *set*. A deposit is pushed before its shard
// executes past the deposit's timestamp (the EIT bound above), so each
// shard's executed sequence — and with it every statistic — is the one the
// serial engine produces. The memory-order argument for the bound has three
// legs, each load-acquire/store-release via the atomics below:
//
//  1. EOTs are monotone (standard CMB induction: local events below the old
//     bound are gone, arrivals carry at least the old bound).
//  2. A reader loads eot[src] *before* draining box[src]: any deposit the
//     drain misses was put after the loaded EOT was published, and every
//     deposit of a round follows that round's execution, whose events are
//     at or above eot - L. So a missed deposit arrives >= the loaded EOT.
//  3. The producer publishes its EOT only after the round's deposits are in
//     their mailboxes, so "visible EOT" never runs ahead of mailbox state.
//
// EOTs stay finite forever: an empty shard publishes eit + L, not
// infinity, because a later arrival could still induce output (publishing
// infinity would let a peer run past that induced output). Quiescent
// shards therefore ratchet each other's EOTs upward without end, and
// termination needs its own detector — a Dijkstra-style double collect
// over three monotone/balanced global counters:
//
//   - deposited: incremented BEFORE each mailbox put;
//   - drained:   incremented AFTER a drain's events are in the queue;
//   - busy:      the number of shards that may still execute or deposit.
//     Starts at K; a shard decrements when it runs out of local events
//     (after the round's deposits are counted) and increments when a
//     drain hands it new work, BEFORE that drain's drained-increment.
//
// An idle shard exits iff it reads d1 := drained, then busy == 0, then
// deposited == d1. Soundness (sync/atomic ops are sequentially
// consistent): d1 == deposited with drained read first means every
// deposit counted by the second read was already drained by the first —
// nothing is in flight. busy == 0 between the two reads means every
// shard's last visible transition was to idle; a shard waking afterwards
// must first drain a deposit, and that deposit's increments either land
// before the collect (making it fail) or constitute a deposit after the
// collect, which inductively requires yet another waker before it — a
// regress that bottoms out in a contradiction. See TestAdaptive* for the
// executable version of this argument.

// shardSlot is one shard's hot synchronization state, padded so two shards
// never share a cache line (the EOT word is stored/loaded on every round).
type shardSlot struct {
	// eot is the published earliest-output-time (adaptive mode only).
	// Always finite: even an empty shard could be handed work whose
	// processing deposits output.
	eot atomic.Uint64

	// deposits counts cross-shard deposits made during the current window
	// (windowed mode only). Written by this shard while it executes, read
	// and reset by the barrier-A leader — the barrier orders both.
	deposits uint64

	// Telemetry, folded into SyncStats after the run.
	windows  uint64
	widthSum uint64
	elided   uint64
	mark     Cycle // end of the last accounted execution stretch

	_ [2]uint64 // pad to 64 bytes
}

// mailbox is one (src shard, dst shard) deposit channel: a spinlocked,
// reusable flat slice. put appends under the lock; drain empties the whole
// batch into the destination queue in one pass, keeping the backing array —
// zero steady-state allocations (gated by TestMailboxZeroAllocSteadyState).
// A growable slice (not a bounded ring) is deliberate: a producer must never
// block on mailbox capacity while its consumer waits on the producer's EOT.
type mailbox struct {
	lock  atomic.Uint32
	n     atomic.Int32 // published length; lets drain skip empty boxes
	items []event
	_     [4]uint64 // pad to 64 bytes
}

// put deposits one event. The CAS loop is uncontended in windowed mode
// (puts and drains are on opposite sides of a barrier) and short in
// adaptive mode (the holder only appends or drains).
//
//vsnoop:hotpath
func (mb *mailbox) put(ev event) {
	for !mb.lock.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	mb.items = append(mb.items, ev)
	mb.n.Store(int32(len(mb.items)))
	mb.lock.Store(0)
}

// drain pushes every deposited event into eng's queue and empties the box,
// returning the count. The cheap n probe makes empty boxes (the common case
// when domains run independently) cost one atomic load and no lock; a put
// racing past the probe is safe to miss — its timestamp is at or beyond the
// reader's horizon, see the protocol argument above.
//
//vsnoop:hotpath
func (mb *mailbox) drain(eng *Engine) int {
	if mb.n.Load() == 0 {
		return 0
	}
	for !mb.lock.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	items := mb.items
	k := len(items)
	for i := range items {
		eng.push(&items[i])
		items[i] = event{} // release fn/arg references held by the array
	}
	mb.items = items[:0]
	mb.n.Store(0)
	mb.lock.Store(0)
	return k
}

// SyncStats is the synchronization telemetry of one sharded run. These are
// execution mechanics — they depend on the shard count and synchronization
// mode by nature, unlike the simulation statistics, which stay bit-identical
// across both.
type SyncStats struct {
	// Windows counts synchronization rounds that executed at least one
	// event (windowed mode: window advances; adaptive mode: execution
	// stretches).
	Windows uint64
	// BarrierWaits counts shard arrivals at a central barrier. Zero for a
	// whole run means no shard ever waited for an exchange.
	BarrierWaits uint64
	// ElidedBarriers counts exchange barriers skipped: quiet windows in
	// windowed mode, every execution stretch in free-running adaptive mode.
	ElidedBarriers uint64
	// WindowWidthSum accumulates the simulated-cycle width of all windows;
	// WindowWidthSum/Windows is the mean window width.
	WindowWidthSum uint64
	// CrossDeposits counts events deposited across shards over the run.
	CrossDeposits uint64
	// ParkedEvents counts the fired events that were parked deliveries
	// (Engine.Park): counted as fired, never executed.
	ParkedEvents uint64
	// CancelledTimers counts the fired events that were cancelled timers
	// (Engine.CancelTimer): counted as fired, never executed. Executed
	// events are EventsFired - ParkedEvents - CancelledTimers.
	CancelledTimers uint64
}

// MeanWindowWidth returns the mean simulated-cycle width of one
// synchronization window (0 when no window completed).
func (s SyncStats) MeanWindowWidth() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.WindowWidthSum) / float64(s.Windows)
}

// runAdaptive is shard s's free-running loop (K >= 2, nothing observing
// window boundaries). Each round: read the other shards' EOTs and drain
// their mailboxes (in that order — see the protocol argument), execute every
// local event strictly below the resulting horizon, then publish this
// shard's new EOT.
func (se *ShardedEngine) runAdaptive(s int) {
	eng := se.engs[s]
	st := &se.sh[s]
	la := se.srcLook[s]
	k := se.k
	idle := false
	for {
		if se.stop.Load() != 0 {
			return // Run resets the counters before any rerun
		}

		// Horizon + drain. Loading eot[src] before draining box[src] makes
		// a missed concurrent put arrive at or beyond the loaded bound.
		eit := infCycle
		drained := 0
		for src := 0; src < k; src++ {
			if src == s {
				continue
			}
			if r := Cycle(se.sh[src].eot.Load()); r < eit {
				eit = r
			}
			drained += se.boxes[src*k+s].drain(eng)
		}
		if idle && drained > 0 {
			// Waking: raise busy before this drain is globally accounted,
			// so a termination collect can never see the work as done but
			// the worker as idle.
			se.busy.Add(1)
			idle = false
		}

		// Execute everything strictly below the horizon.
		f0 := eng.Fired()
		err := eng.RunWindow(eit)
		next := infCycle
		if at, ok := eng.NextAt(); ok {
			next = at
		}

		// Publish the new EOT (monotone by construction; finite whenever
		// any peer's is — an empty queue bounds output by eit + L, never
		// by infinity), then account the drained deposits.
		eo := next
		if eit < eo {
			eo = eit
		}
		if eo != infCycle {
			eo += la
		}
		st.eot.Store(uint64(eo))
		if drained > 0 {
			se.drained.Add(uint64(drained))
		}
		if err != nil {
			se.errs[s] = err
			se.stop.Store(1)
			return
		}

		if eng.Fired() > f0 {
			end := eit
			if end == infCycle {
				end = eng.Now()
			}
			if end > st.mark {
				st.windows++
				st.widthSum += uint64(end - st.mark)
				st.mark = end
			}
			st.elided++
			continue
		}

		// Out of local work: go idle (the decrement follows this round's
		// deposit counting in program order) and try the termination
		// double collect; otherwise yield and re-poll.
		if next == infCycle {
			if !idle {
				idle = true
				se.busy.Add(-1)
			}
			d1 := se.drained.Load()
			if se.busy.Load() == 0 && se.deposited.Load() == d1 {
				return
			}
		}
		runtime.Gosched()
	}
}
