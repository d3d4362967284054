// Background ranking jobs: whole-graph PageRank or a PPR batch,
// running async under the daemon with checkpoint-backed crash
// tolerance. Every CheckpointEvery iterations the driver snapshot is
// spooled atomically; a kill -9 at any instant warm-restarts from the
// last spooled snapshot and — because every engine is reproducible at
// a fixed worker count and the analytics Resume contract is
// bit-for-bit — finishes with
// exactly the ranks an uninterrupted run would have produced. A
// faulted attempt (worker panic, exhausted numeric rollback) restarts
// from the latest in-memory snapshot with jittered exponential
// backoff, at most JobRetries times.
package serve

import (
	"context"
	"fmt"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
)

// Job statuses reported by the API.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// job is one background ranking run. Mutable fields are guarded by
// the server's jobMu (status reads are rare: the API and drain).
type job struct {
	spec       jobSpec
	status     string
	iter       int
	retries    int
	rollbacks  int
	errMsg     string
	result     *analytics.Checkpoint // final state when status == done
	resume     *analytics.Checkpoint // latest snapshot (in-memory)
	softCancel context.CancelFunc
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID        string     `json:"id"`
	Algo      string     `json:"algo"`
	Sources   []uint32   `json:"sources,omitempty"`
	Status    string     `json:"status"`
	Iter      int        `json:"iter"`
	Retries   int        `json:"retries"`
	Rollbacks int        `json:"rollbacks"`
	Error     string     `json:"error,omitempty"`
	Opts      JobOptions `json:"opts"`
}

// StartJob validates and launches a background job, returning its ID.
func (s *Server) StartJob(algo string, sources []uint32, opts JobOptions) (string, error) {
	if s.draining.Load() {
		return "", ErrOverloaded
	}
	switch algo {
	case "pagerank":
		if len(sources) != 0 {
			return "", fmt.Errorf("serve: pagerank jobs take no sources")
		}
	case "ppr":
		if len(sources) == 0 {
			return "", fmt.Errorf("serve: ppr jobs need at least one source")
		}
		for _, src := range sources {
			if int(src) >= s.n {
				return "", fmt.Errorf("serve: vertex %d out of [0,%d)", src, s.n)
			}
		}
	default:
		return "", fmt.Errorf("serve: unknown algo %q", algo)
	}
	id := fmt.Sprintf("job-%x-%x", time.Now().UnixNano(), s.seq.Add(1))
	j := &job{
		spec: jobSpec{
			ID: id, Algo: algo, Sources: sources, Opts: opts,
			Workers: s.cfg.Workers,
		},
		status: JobRunning,
	}
	s.launchJob(j)
	s.m.jobsStarted.Add(1)
	return id, nil
}

// launchJob registers j and starts its attempt loop under a
// soft-cancellable context (drain cancels it; the job parks with its
// spool record intact and resumes on the next boot).
func (s *Server) launchJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.softCancel = cancel
	s.jobMu.Lock()
	s.jobs[j.spec.ID] = j
	s.jobMu.Unlock()
	s.wg.Add(1)
	go s.runJob(ctx, j)
}

// replaySpool is the warm-restart path: every decodable record is
// either re-registered as a completed job or resumed from its
// checkpoint.
func (s *Server) replaySpool() error {
	recs, bad, err := scanSpool(s.cfg.SpoolDir)
	if err != nil {
		return fmt.Errorf("serve: scanning spool: %w", err)
	}
	s.m.spoolBad.Add(int64(bad))
	for _, rec := range recs {
		j := &job{spec: rec.Spec}
		switch rec.State {
		case spoolStateDone:
			j.status = JobDone
			j.result = rec.Ckpt
			j.iter = rec.Ckpt.Iter
			s.jobMu.Lock()
			s.jobs[j.spec.ID] = j
			s.jobMu.Unlock()
		case spoolStateRunning:
			j.status = JobRunning
			j.resume = rec.Ckpt
			j.iter = rec.Ckpt.Iter
			if rec.Spec.Workers != s.cfg.Workers {
				s.log.Warn("resuming with different worker count; bit-for-bit replay not guaranteed",
					"job", j.spec.ID, "spooled", rec.Spec.Workers, "now", s.cfg.Workers)
			}
			s.m.jobsResumed.Add(1)
			s.launchJob(j)
		}
	}
	return nil
}

// runJob is the bounded retry loop around jobAttempt.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := s.jobAttempt(ctx, j)
		if err == nil {
			s.m.jobsDone.Add(1)
			return
		}
		if ctx.Err() != nil {
			// Drain or hard stop: the job parks as running with its
			// latest spool record; the next boot resumes it.
			s.log.Info("job parked", "job", j.spec.ID, "iter", j.iter)
			return
		}
		s.jobMu.Lock()
		j.retries++
		s.jobMu.Unlock()
		s.m.jobRetries.Add(1)
		if attempt >= s.cfg.JobRetries {
			s.jobMu.Lock()
			j.status = JobFailed
			j.errMsg = err.Error()
			s.jobMu.Unlock()
			s.m.jobsFailed.Add(1)
			s.log.Error("job failed", "job", j.spec.ID, "err", err, "attempts", attempt+1)
			return
		}
		s.log.Warn("job attempt failed; restarting from checkpoint",
			"job", j.spec.ID, "err", err, "attempt", attempt+1, "iter", j.iter)
		time.Sleep(jitter(backoff))
		backoff *= 2
	}
}

// jobAttempt runs the job from its latest snapshot to completion on a
// fresh pool + engine, converting panics into errors so the retry
// loop owns the policy.
func (s *Server) jobAttempt(ctx context.Context, j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job panic: %v", p)
		}
	}()
	pool := sched.NewPool(j.spec.Workers)
	defer pool.Close()
	eng, err := s.newEngine(pool)
	if err != nil {
		return err
	}
	opt := analytics.PageRankOptions{
		Damping:              j.spec.Opts.Damping,
		MaxIters:             j.spec.Opts.MaxIters,
		Tol:                  j.spec.Opts.Tol,
		RedistributeDangling: j.spec.Opts.RedistributeDangling,
		CheckpointEvery:      s.cfg.CheckpointEvery,
		OnCheckpoint:         func(c *analytics.Checkpoint) { s.onJobCheckpoint(j, c) },
	}
	s.jobMu.Lock()
	opt.Resume = j.resume.Clone()
	s.jobMu.Unlock()

	var final *analytics.Checkpoint
	var rollbacks int
	switch j.spec.Algo {
	case "pagerank":
		res, rerr := analytics.RunPageRankCtx(ctx, eng, s.outDeg, pool, opt)
		if rerr != nil {
			return rerr
		}
		rollbacks = res.Rollbacks
		final = &analytics.Checkpoint{Algo: "pagerank", Iter: res.Iters, N: s.n, K: 1,
			Ranks: res.Ranks, Aux: []float64{res.Delta}}
	case "ppr":
		srcs := make([]int, len(j.spec.Sources))
		for i, src := range j.spec.Sources {
			srcs[i] = s.toEngine(src)
		}
		res, rerr := analytics.RunPersonalizedPageRankCtx(ctx, eng, s.outDeg, pool, srcs, opt)
		if rerr != nil {
			return rerr
		}
		rollbacks = res.Rollbacks
		aux := append([]float64(nil), res.Deltas...)
		final = &analytics.Checkpoint{Algo: "ppr", Iter: res.Iters, N: s.n, K: res.K,
			Ranks: res.Ranks, Aux: aux}
	default:
		return fmt.Errorf("serve: unknown algo %q", j.spec.Algo)
	}

	s.jobMu.Lock()
	j.status = JobDone
	j.result = final
	j.iter = final.Iter
	j.rollbacks += rollbacks
	s.jobMu.Unlock()
	s.m.rollbacks.Add(int64(rollbacks))
	s.spoolJob(j, spoolStateDone, final)
	return nil
}

// onJobCheckpoint runs on the job's driver goroutine at every
// snapshot: retain it as the in-memory retry target, spool it, and
// apply the throttle knob.
func (s *Server) onJobCheckpoint(j *job, c *analytics.Checkpoint) {
	cl := c.Clone()
	s.jobMu.Lock()
	j.resume = cl
	j.iter = cl.Iter
	s.jobMu.Unlock()
	s.spoolJob(j, spoolStateRunning, cl)
	if s.cfg.JobIterDelay > 0 {
		time.Sleep(s.cfg.JobIterDelay)
	}
}

// spoolJob persists the job's state; failures are counted and logged
// but do not stop the job (the previous spool record stays valid, so
// durability degrades by one checkpoint interval, not to zero).
func (s *Server) spoolJob(j *job, state uint32, c *analytics.Checkpoint) {
	if s.cfg.SpoolDir == "" {
		return
	}
	faultinject.Fire(faultinject.SiteServeSpool)
	rec := &spoolRecord{Spec: j.spec, State: state, Ckpt: c}
	if err := writeSpool(s.cfg.SpoolDir, rec); err != nil {
		s.m.spoolErrors.Add(1)
		s.log.Error("spool write failed", "job", j.spec.ID, "err", err)
		return
	}
	s.m.spoolWrites.Add(1)
}

// JobStatusByID returns the API view of one job.
func (s *Server) JobStatusByID(id string) (JobStatus, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{
		ID: j.spec.ID, Algo: j.spec.Algo, Sources: j.spec.Sources,
		Status: j.status, Iter: j.iter, Retries: j.retries,
		Rollbacks: j.rollbacks, Error: j.errMsg, Opts: j.spec.Opts,
	}, true
}

// JobRanks returns a done job's final ranks in ORIGINAL vertex-ID
// space: lane j of a PPR job, or the single PageRank vector (lane 0).
func (s *Server) JobRanks(id string, lane int) ([]float64, error) {
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	var result *analytics.Checkpoint
	if ok {
		result = j.result
	}
	s.jobMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	if result == nil {
		return nil, fmt.Errorf("serve: job %q not done", id)
	}
	if lane < 0 || lane >= result.K {
		return nil, fmt.Errorf("serve: lane %d out of [0,%d)", lane, result.K)
	}
	eng := make([]float64, result.N)
	for v := 0; v < result.N; v++ {
		eng[v] = result.Ranks[v*result.K+lane]
	}
	return s.toOriginal(eng), nil
}
