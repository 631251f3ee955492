package sim

import (
	"vsnoop/internal/prof"
	"vsnoop/internal/runner"
)

// This file implements the optimistic (Time Warp) synchronization mode of
// the ShardedEngine: breathing-time-buckets epochs with flat-slice
// checkpoints, source-side anti-messages, and a barrier GVT commit.
//
// The conservative modes (shard.go, adaptive.go) never let a shard execute
// an event until the timestamp math proves no earlier cross-shard event can
// still arrive. When cross-domain lookahead is short — the high-migration,
// high-sharing configs — that proof forces lockstep windows one mesh hop
// wide. The optimistic mode inverts the bet: every shard executes a whole
// epoch [T, T+E) on the assumption that no cross-shard event will interfere,
// and pays for actual conflicts (a rollback to the last checkpoint at or
// below the commit horizon) instead of potential ones.
//
// One epoch, all shards in lockstep over three barriers:
//
//  1. Drain. Every shard empties its inboxes (everything in them was
//     released at the previous commit, so it is committed by construction)
//     and publishes its next pending timestamp. The leader folds the global
//     minimum M: the epoch base T jumps straight to M (idle skip-ahead),
//     and M == +inf is termination — with the world stopped at a barrier,
//     the Dijkstra-style double collect of adaptive.go degenerates to a
//     single read of the matched deposit/drain ledger (GVT = +inf).
//
//  2. Execute. Each shard checkpoints at T (engine snapshot + the model's
//     ShardState.Save) and runs every local event below T+E. Cross-shard
//     sends do NOT go to the mailboxes: they are staged in a per-shard
//     outbox tagged with their send time. Mid-epoch checkpoints land each
//     time execution crosses a stride of the ring (twSnapSlots slots), so a
//     shallow rollback replays a fraction of the epoch, not all of it.
//     When E is at the conservative floor (E <= the minimum cross-shard
//     lookahead), interference is impossible and the checkpoint phase is
//     skipped entirely — the epoch degenerates to one windowed round.
//
//  3. Commit. The leader folds H = min over all staged sends' arrival
//     times and commits C = min(H, T+E): every event below C executed with
//     exactly the inputs the serial engine would have given it, because any
//     send that could land below C would have had to be staged with an
//     arrival below H. A shard whose local virtual time reached C or beyond
//     detects the straggler — a released deposit would land below its LVT —
//     and rolls back: restore the newest checkpoint at or below C, then
//     re-execute up to C with cross-shard sends suppressed (every replayed
//     send is a byte-identical duplicate of one being released, see below).
//     Each shard then walks its outbox: sends stamped below C are released
//     to the mailboxes (their arrivals are >= H >= C, so they can never
//     straggle a committed region), and sends stamped at or beyond C are
//     annihilated in place — the anti-message of classic Time Warp, except
//     the positive message never left the source, so no receiver-side
//     cancellation protocol is needed. The next epoch's base is C.
//
// Why committed state is bit-identical to serial by construction: a shard's
// queue pop order is a strict total order on (cycle, domain-seq key), a pure
// function of the event set (see shard.go); the commit rule guarantees the
// event set below C is exactly the serial one (all earlier cross-shard
// deposits released and drained, none still staged); and replay after a
// rollback is deterministic — same engine state, same key counters, same
// event set, no mid-epoch arrivals — which is also the proof that dropping
// replayed sends loses nothing: the replay regenerates, byte for byte, the
// sends below C that the first execution staged and the commit released.
//
// Optimism is throttled, not trusted: when the committed width sits at the
// conservative floor for twBailEpochs consecutive epochs (dense cross
// traffic — checkpoints buy nothing), the engine permanently hands off to
// the adaptive free-run from the barrier, where every shard is quiesced at
// the committed front and the mailboxes are empty — exactly the state
// adaptive mode starts from.

// Mode selects the ShardedEngine's synchronization engine. The zero value
// (ModeAuto) preserves the historical dispatch: adaptive free-running when
// nothing observes window boundaries, windowed otherwise.
type Mode int

const (
	// ModeAuto lets the engine pick: adaptive free-running for K >= 2 with
	// nothing observing window boundaries, windowed otherwise.
	ModeAuto Mode = iota
	// ModeWindowed pins the fully synchronized windowed protocol.
	ModeWindowed
	// ModeAdaptive pins the conservative null-message free-run (the ModeAuto
	// default when nothing observes boundaries).
	ModeAdaptive
	// ModeTimewarp runs optimistic epochs with checkpoint/rollback. Requires
	// a ShardState (SetShardState); without one — or with an OnWindow hook,
	// a step bound, or DisableElision, all of which need conservative window
	// boundaries — the engine falls back to a conservative mode.
	ModeTimewarp
)

// ShardState saves and restores the simulation-model state owned by one
// shard, so the optimistic engine can checkpoint and roll back model state
// alongside its own event queues. Slots are a small per-shard ring
// (twSnapSlots); Save(s, slot) overwrites the slot, Restore(s, slot) brings
// the shard's model state back to it, and Commit(s) tells the model that
// everything up to the commit horizon is final (acquisition undo-logs and
// similar epoch-local bookkeeping can be truncated). All three are invoked
// on shard s's own goroutine, in barrier-separated phases, so
// implementations touch only shard-owned state and need no locking.
type ShardState interface {
	Save(shard, slot int)
	Restore(shard, slot int)
	Commit(shard int)
}

// Per-shard deposit routing during a timewarp run.
const (
	twDirect int32 = iota // straight to the mailbox (bailed-out / between epochs)
	twHold                // stage in the outbox, tagged with the send time
	twDrop                // rollback replay: every send is a released duplicate
)

// twSnapSlots is the checkpoint-ring depth: one snapshot at the epoch base
// plus up to twSnapSlots-1 mid-epoch snapshots, one per stride crossed.
const twSnapSlots = 4

// twBailEpochs is how many consecutive floor-width commits the controller
// tolerates before permanently handing off to the conservative engine.
const twBailEpochs = 8

// twGrowCap bounds the epoch width (in cycles): optimism beyond this buys
// nothing and makes a worst-case rollback replay arbitrarily long.
const twGrowCap = Cycle(1) << 20

// twMsg is one staged cross-shard send: the event, its destination shard,
// and the simulated time the sending event executed at — the stamp the
// commit rule releases or annihilates by.
//
//vsnoop:owned
type twMsg struct {
	send Cycle
	dst  int32
	ev   event
}

// engSnap is a flat-slice checkpoint of one Engine: the clock, the
// tie-break counters, the watchdog, and every pending event as a flat
// list (ring buckets and far heap alike). Buffers are reused across saves,
// so a steady-state checkpoint allocates nothing once the checkpoint ring
// has grown to the run's high-water mark.
//
//vsnoop:owned
type engSnap struct {
	now           Cycle
	seq           uint64
	fired         uint64
	sinceProgress uint64
	curDom        int32
	domSeq        []uint64
	events        []event
}

// saveSnap checkpoints the engine into s, reusing s's buffers.
func (e *Engine) saveSnap(s *engSnap) {
	s.now, s.seq, s.fired, s.sinceProgress, s.curDom = e.now, e.seq, e.fired, e.sinceProgress, e.curDom
	s.domSeq = append(s.domSeq[:0], e.domSeq...)
	s.events = e.appendPending(s.events[:0])
}

// restoreSnap rewinds the engine to s. Restoring fired keeps EventsFired
// bit-identical to serial: discarded speculative events are uncounted and
// the committed replay recounts each exactly once. The queue is cleared and
// the saved events re-pushed: firing order depends only on (at, key), so
// the rebuilt layout is unobservable.
func (e *Engine) restoreSnap(s *engSnap) {
	e.now, e.seq, e.fired, e.sinceProgress, e.curDom = s.now, s.seq, s.fired, s.sinceProgress, s.curDom
	e.domSeq = append(e.domSeq[:0], s.domSeq...)
	e.resetQueue()
	for i := range s.events {
		e.push(&s.events[i])
	}
}

// twShard is one shard's optimistic state: the staging outbox, the
// checkpoint ring, and the per-epoch fold inputs. Only the owning shard's
// goroutine touches it outside the barrier leader's folds.
//
//vsnoop:owned
type twShard struct {
	// mode routes this shard's cross-shard deposits (twDirect/twHold/twDrop).
	// Written by the owning goroutine around its execution phases only.
	mode int32

	// outbox holds the epoch's staged cross-shard sends in send order.
	outbox []twMsg

	// snaps/snapAt/nsnap are the epoch's checkpoint ring: snaps[j] was taken
	// with every local event below snapAt[j] executed. Slot 0 is always the
	// epoch base T.
	snaps  [twSnapSlots]engSnap
	snapAt [twSnapSlots]Cycle
	nsnap  int

	// Fold inputs published before a barrier: next pending timestamp after
	// the drain (barrier 1), minimum staged arrival and local virtual time
	// after execution (barrier 2).
	next Cycle
	held Cycle
	lvt  Cycle

	// Telemetry, folded into SyncStats after the run.
	rollbacks uint64
	antimsgs  uint64
	gvtLag    uint64
}

// depositEv routes one cross-shard event from shard s to shard dst. The
// conservative modes always go straight to the mailbox; a timewarp
// execution phase stages the send instead, and a rollback replay drops it
// (the commit already released the identical original).
//
//vsnoop:hotpath
func (se *ShardedEngine) depositEv(s, dst int, ev event) {
	if se.tw != nil {
		switch tws := &se.tw[s]; tws.mode {
		case twHold:
			tws.outbox = append(tws.outbox, twMsg{send: se.engs[s].now, dst: int32(dst), ev: ev})
			return
		case twDrop:
			return
		}
	}
	se.sh[s].deposits++
	// Count before the put: the adaptive termination check must never read
	// a drained total that covers an uncounted deposit.
	se.deposited.Add(1)
	se.boxes[s*se.k+dst].put(ev)
}

// runTimewarpAll drives the optimistic mode and folds its outcome. If the
// controller bailed out mid-run, the shards finished under the adaptive
// protocol and its per-shard telemetry is folded in exactly as
// runAdaptiveAll would.
func (se *ShardedEngine) runTimewarpAll() {
	se.tw = make([]twShard, se.k)
	la := infCycle
	for s := 0; s < se.k; s++ {
		if se.srcLook[s] < la {
			la = se.srcLook[s]
		}
	}
	se.twLmin = la
	se.twE = la * 8 // initial optimism; the controller adapts from here
	if se.twE > twGrowCap {
		se.twE = twGrowCap
	}
	se.twFloor = 0
	se.twBail = false
	runner.Map(se.k, se.k, func(s int) struct{} {
		prof.Do(s, "shard-timewarp", func() { se.runTimewarp(s) })
		return struct{}{}
	})
	for s := 0; s < se.k; s++ {
		if se.err == nil && se.errs[s] != nil {
			se.err = se.errs[s]
		}
		tws := &se.tw[s]
		se.tele.Rollbacks += tws.rollbacks
		se.tele.AntiMessages += tws.antimsgs
		se.tele.GVTLagSum += tws.gvtLag
		// Bailed-out stretches accumulate in the adaptive per-shard slots;
		// zero when the run stayed optimistic throughout.
		st := &se.sh[s]
		se.tele.Windows += st.windows
		se.tele.WindowWidthSum += st.widthSum
		se.tele.ElidedBarriers += st.elided
		if now := se.engs[s].Now(); now > se.w {
			se.w = now
		}
	}
	se.tele.CrossDeposits = se.deposited.Load()
}

// runTimewarp is shard s's epoch loop. The three barriers reuse the
// windowed-mode pair plus one more; every leader runs with all shards
// quiesced, and the barrier generation publish orders its plain writes.
func (se *ShardedEngine) runTimewarp(s int) {
	eng := se.engs[s]
	tws := &se.tw[s]
	k := int32(se.k)
	for {
		// Phase 1 — drain: everything in the inboxes was released at the
		// previous commit and is final. Publish the next pending timestamp
		// for the leader's epoch-base fold.
		drained := 0
		for src := 0; src < se.k; src++ {
			drained += se.boxes[src*se.k+s].drain(eng)
		}
		if drained > 0 {
			se.drained.Add(uint64(drained))
		}
		tws.next = infCycle
		if at, ok := eng.NextAt(); ok {
			tws.next = at
		}
		se.barA.wait(k, se.twLeadOpen)
		if se.done {
			return
		}
		if se.twBail {
			// Permanent hand-off: quiesced at the committed front, inboxes
			// drained, outboxes empty — adaptive mode's starting state.
			se.runAdaptive(s)
			return
		}

		// Phase 2 — optimistic execution of [T, T+E) with sends staged.
		T, wend := se.twT, se.twT+se.twE
		f0 := eng.Fired()
		tws.lvt = T
		tws.mode = twHold
		var err error
		if se.twSave {
			eng.saveSnap(&tws.snaps[0])
			tws.snapAt[0] = T
			se.state.Save(s, 0)
			tws.nsnap = 1
			// Mid-epoch checkpoints only pay when each stride protects at
			// least a conservative floor's worth of replay; narrower epochs
			// keep just the base snapshot and re-execute from T on rollback.
			slots := twSnapSlots
			if se.twE < Cycle(twSnapSlots)*se.twLmin {
				slots = int(se.twE / se.twLmin)
				if slots < 1 {
					slots = 1
				}
			}
			stride := se.twE / Cycle(slots)
			if stride == 0 {
				stride = 1
			}
			lastF := eng.Fired()
			for j := 1; j <= slots; j++ {
				bound := T + stride*Cycle(j)
				if j == slots || bound > wend {
					bound = wend
				}
				err = eng.RunWindow(bound)
				if err != nil || bound == wend {
					break
				}
				if eng.Fired() == lastF {
					// Nothing fired since the last checkpoint: the state is
					// unchanged, so slide that checkpoint's horizon forward
					// instead of saving an identical snapshot.
					tws.snapAt[tws.nsnap-1] = bound
					continue
				}
				eng.saveSnap(&tws.snaps[tws.nsnap])
				tws.snapAt[tws.nsnap] = bound
				se.state.Save(s, tws.nsnap)
				tws.nsnap++
				lastF = eng.Fired()
			}
		} else {
			// E is at the conservative floor: no staged send can land below
			// T+E, so the epoch cannot roll back and checkpoints buy nothing.
			err = eng.RunWindow(wend)
		}
		if eng.Fired() > f0 {
			tws.lvt = eng.Now()
		}
		tws.held = infCycle
		for i := range tws.outbox {
			if at := tws.outbox[i].ev.at; at < tws.held {
				tws.held = at
			}
		}
		se.errs[s] = err
		se.barB.wait(k, se.twLeadCommit)
		if se.done {
			return
		}

		// Phase 3 — commit: roll back past-horizon execution, release
		// committed sends, annihilate rolled-back ones.
		C := se.twC
		if tws.lvt >= C {
			// Straggler: a send being released this epoch arrives below this
			// shard's local virtual time. Restore the newest checkpoint at
			// or below C and replay up to C with sends suppressed.
			tws.rollbacks++
			tws.gvtLag += uint64(tws.lvt - C)
			slot := 0
			for j := 1; j < tws.nsnap; j++ {
				if tws.snapAt[j] <= C {
					slot = j
				}
			}
			eng.restoreSnap(&tws.snaps[slot])
			se.state.Restore(s, slot)
			tws.mode = twDrop
			if rerr := eng.RunWindow(C); rerr != nil {
				se.errs[s] = rerr
			}
		}
		tws.mode = twDirect
		for i := range tws.outbox {
			msg := &tws.outbox[i]
			if msg.send < C {
				se.deposited.Add(1)
				se.boxes[s*se.k+int(msg.dst)].put(msg.ev)
			} else {
				tws.antimsgs++
			}
			*msg = twMsg{} // release fn/arg references held by the array
		}
		tws.outbox = tws.outbox[:0]
		se.state.Commit(s)
		se.barC.wait(k, se.twLeadClose)
		if se.done {
			return
		}
	}
}

// twLeadOpen runs on the barrier-1 leader: fold the epoch base (idle
// skip-ahead), detect termination, and arm the controller's bailout.
func (se *ShardedEngine) twLeadOpen() {
	se.tele.BarrierWaits += uint64(se.k)
	m := infCycle
	for s := range se.tw {
		if se.tw[s].next < m {
			m = se.tw[s].next
		}
	}
	if m == infCycle {
		// No pending event anywhere, every outbox empty (commit drains
		// them), every inbox drained this phase — and, with the world
		// stopped at this barrier, the adaptive double collect degenerates
		// to one read of the matched ledger. GVT = +inf: done.
		if se.deposited.Load() == se.drained.Load() {
			se.done = true
			return
		}
		// A counted deposit not yet drained cannot exist here; treat it as
		// the protocol bug it would be rather than spinning forever.
		panic("sim: timewarp termination with unbalanced deposit ledger")
	}
	se.twT = m
	if se.twFloor >= twBailEpochs {
		// Sustained floor-width commits: cross traffic is dense enough that
		// optimism only pays checkpoint overhead. Seed the adaptive EOTs
		// from the committed front (a fresh 0 would make the null-message
		// protocol ratchet up from cycle zero) and hand off for good.
		se.twBail = true
		se.tele.Bailouts++
		for s := 0; s < se.k; s++ {
			nx := se.tw[s].next
			if nx == infCycle {
				nx = m
			}
			se.sh[s].eot.Store(uint64(nx + se.srcLook[s]))
		}
		return
	}
	se.twSave = se.twE > se.twLmin
}

// twLeadCommit runs on the barrier-2 leader: fold errors, commit
// C = min(H, T+E), and adapt the epoch width.
func (se *ShardedEngine) twLeadCommit() {
	se.tele.BarrierWaits += uint64(se.k)
	for s := 0; s < se.k; s++ {
		if se.errs[s] != nil {
			se.err = se.errs[s]
			se.done = true
			return
		}
	}
	h := infCycle
	for s := range se.tw {
		if se.tw[s].held < h {
			h = se.tw[s].held
		}
	}
	c := se.twT + se.twE
	if h < c {
		c = h
	}
	se.twC = c
	width := c - se.twT
	se.tele.Windows++
	se.tele.WindowWidthSum += uint64(width)
	// Width controller: a full commit doubles the epoch (capped); an
	// interference-cut commit resets it to the observed width. Floor-width
	// commits arm the bailout counter.
	if c == se.twT+se.twE {
		if se.twE < twGrowCap {
			se.twE *= 2
			if se.twE > twGrowCap {
				se.twE = twGrowCap
			}
		}
	} else {
		se.twE = width
		if se.twE < se.twLmin {
			se.twE = se.twLmin
		}
	}
	if width <= 2*se.twLmin {
		se.twFloor++
	} else {
		se.twFloor = 0
	}
}

// twLeadClose runs on the barrier-3 leader: fold replay errors and advance
// the committed front.
func (se *ShardedEngine) twLeadClose() {
	se.tele.BarrierWaits += uint64(se.k)
	for s := 0; s < se.k; s++ {
		if se.errs[s] != nil {
			se.err = se.errs[s]
			se.done = true
			return
		}
	}
	se.w = se.twC
}
