package serve

import (
	"context"
	"errors"
	"fmt"

	"vsnoop"
)

// Job statuses.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"   // at least one config failed; the rest ran
	statusCanceled = "canceled" // client cancel or deadline
)

// Per-config outcome kinds.
const (
	cfgPending  = "pending"
	cfgComputed = "computed" // simulated in this process
	cfgMemoized = "memoized" // store hit, no simulation
	cfgReplayed = "replayed" // store hit while recovering a journaled job
	cfgFailed   = "failed"
	cfgCanceled = "canceled"
)

// outcome is the public per-config status inside a job view.
type outcome struct {
	Hash  string `json:"hash"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// jobState is one accepted job. Mutable fields (status, outcomes, done)
// are guarded by the server mutex; the run loop takes snapshots under it.
type jobState struct {
	id      string
	tenant  string
	configs []vsnoop.Config
	hashes  []string

	status   string
	outcomes []outcome
	done     int // configs in a terminal state

	recovered bool // rebuilt from the journal after a restart
	ctx       context.Context
	cancelFn  context.CancelFunc
}

// jobRequest is the POST /v1/jobs body: exactly one of Config or Sweep.
type jobRequest struct {
	Tenant    string         `json:"tenant,omitempty"`
	TimeoutMs int64          `json:"timeout_ms,omitempty"`
	Config    *vsnoop.Config `json:"config,omitempty"`
	Sweep     *sweepSpec     `json:"sweep,omitempty"`
}

// sweepSpec expands to the cross product of the non-empty axis lists
// applied over the base config, in fixed axis order (workloads, policies,
// thresholds, seeds) — the expansion order is part of the API contract, so
// a sweep's config list is deterministic.
type sweepSpec struct {
	Config     vsnoop.Config   `json:"config"`
	Workloads  []string        `json:"workloads,omitempty"`
	Policies   []vsnoop.Policy `json:"policies,omitempty"`
	Thresholds []int           `json:"thresholds,omitempty"`
	Seeds      []uint64        `json:"seeds,omitempty"`
}

func (s *sweepSpec) expand() []vsnoop.Config {
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{s.Config.Workload}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []vsnoop.Policy{s.Config.Policy}
	}
	thresholds := s.Thresholds
	if len(thresholds) == 0 {
		thresholds = []int{s.Config.Threshold}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{s.Config.Seed}
	}
	var out []vsnoop.Config
	for _, w := range workloads {
		for _, p := range policies {
			for _, th := range thresholds {
				for _, sd := range seeds {
					cfg := s.Config
					cfg.Workload = w
					cfg.Policy = p
					cfg.Threshold = th
					cfg.Seed = sd
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// expandRequest turns a request into its config list.
func expandRequest(req *jobRequest) ([]vsnoop.Config, error) {
	switch {
	case req.Config != nil && req.Sweep != nil:
		return nil, fmt.Errorf("request has both config and sweep")
	case req.Config != nil:
		return []vsnoop.Config{*req.Config}, nil
	case req.Sweep != nil:
		return req.Sweep.expand(), nil
	default:
		return nil, fmt.Errorf("request has neither config nor sweep")
	}
}

// runJob is the worker-side job loop: run every config in order, stopping
// early only on cancellation. Configs run sequentially within a job —
// parallelism comes from the pool's workers.
func (s *Server) runJob(j *jobState) {
	s.mu.Lock()
	if j.status == statusQueued {
		j.status = statusRunning
	}
	n := len(j.configs)
	s.mu.Unlock()

	anyFailed, canceled := false, false
	for i := 0; i < n; i++ {
		s.mu.Lock()
		state := j.outcomes[i].State
		s.mu.Unlock()
		if state != cfgPending {
			continue // finished before a crash; already accounted in replay
		}
		if j.ctx.Err() != nil {
			s.setOutcome(j, i, cfgCanceled, "")
			canceled = true
			continue
		}
		st, errMsg := s.runConfig(j, i)
		s.setOutcome(j, i, st, errMsg)
		switch st {
		case cfgFailed:
			anyFailed = true
		case cfgCanceled:
			canceled = true
		}
	}

	final := statusDone
	switch {
	case canceled:
		final = statusCanceled
		s.metrics.jobsCanceled.Add(1)
	case anyFailed:
		final = statusFailed
		s.metrics.jobsFailed.Add(1)
	default:
		s.metrics.jobsDone.Add(1)
	}
	s.mu.Lock()
	j.status = final
	s.mu.Unlock()
	s.journalAppend(record{Op: opEnd, ID: j.id, Status: final})
	j.cancelFn()
}

// runConfig resolves one config of a job: store hit (memoized/replayed) or
// a fresh simulation, deduplicated against concurrent jobs computing the
// same hash. On success the result is durable in the store and the cfg
// record is journaled before returning.
func (s *Server) runConfig(j *jobState, i int) (state, errMsg string) {
	h := j.hashes[i]
	hit := cfgMemoized
	if j.recovered {
		hit = cfgReplayed
	}
	if rec, ok, _ := s.store.get(h); ok && rec != nil {
		if hit == cfgReplayed {
			s.metrics.configsReplayed.Add(1)
		} else {
			s.metrics.configsMemoized.Add(1)
		}
		s.journalAppend(record{Op: opCfg, ID: j.id, Hash: h, Status: "ok"})
		return hit, ""
	}

	// Singleflight: one computation per hash at a time, across jobs.
	var ch chan struct{}
	for {
		s.fmu.Lock()
		other, busy := s.flights[h]
		if !busy {
			ch = make(chan struct{})
			s.flights[h] = ch
			s.fmu.Unlock()
			break
		}
		s.fmu.Unlock()
		select {
		case <-other:
			if _, ok, _ := s.store.get(h); ok {
				s.metrics.configsMemoized.Add(1)
				s.journalAppend(record{Op: opCfg, ID: j.id, Hash: h, Status: "ok"})
				return cfgMemoized, ""
			}
			// The other flight failed or was canceled; take our turn.
		case <-j.ctx.Done():
			return cfgCanceled, ""
		}
	}
	defer func() {
		s.fmu.Lock()
		delete(s.flights, h)
		s.fmu.Unlock()
		close(ch)
	}()

	res, err := vsnoop.RunCtx(j.ctx, j.configs[i])
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return cfgCanceled, ""
		}
		s.metrics.configsFailed.Add(1)
		s.journalAppend(record{Op: opCfg, ID: j.id, Hash: h, Status: "failed", Err: err.Error()})
		return cfgFailed, err.Error()
	}
	s.metrics.configsComputed.Add(1)
	rec := normalizeRecord(j.configs[i], res)
	if perr := s.store.put(rec); perr != nil {
		// Result computed but not durable: fail the config rather than
		// journal a completion the store cannot back.
		s.metrics.configsFailed.Add(1)
		return cfgFailed, fmt.Sprintf("store: %v", perr)
	}
	s.journalAppend(record{Op: opCfg, ID: j.id, Hash: h, Status: "ok"})
	// Every durable write is a GC trigger: evict oldest-unreferenced
	// records until the store fits its bound again (this job's hashes are
	// live until it terminates, so its own results are never victims).
	s.store.gc(s.liveHashes())
	return cfgComputed, ""
}

// setOutcome records a config's terminal state under the server lock.
func (s *Server) setOutcome(j *jobState, i int, state, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.outcomes[i].State == cfgPending {
		j.outcomes[i].State = state
		j.outcomes[i].Err = errMsg
		j.done++
	}
}

// journalAppend appends a record, counting it; journal failures after
// admission are surfaced via metrics (the job proceeds — losing a cfg
// record costs one recomputation after a crash, never correctness).
func (s *Server) journalAppend(r record) {
	if err := s.journal.append(r); err == nil {
		s.metrics.journalRecords.Add(1)
	}
}
