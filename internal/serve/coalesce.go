// Request coalescing: the dispatcher packs queued PPR queries into the
// lanes of one batched traversal. Lane assignment is arrival order —
// the admission queue is FIFO and lanes are filled in dequeue order —
// so a given arrival sequence always produces the same packing, and
// bit-identical per-query results to solo runs: every engine is
// reproducible at a fixed worker count, and a batch lane sums exactly
// what a scalar step sums.
package serve

import (
	"context"
	"fmt"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/faultinject"
)

// maxBatchRetries bounds how many times a panicked batch is
// re-dispatched (with the already-answered lanes excluded) before the
// remaining queries fail.
const maxBatchRetries = 2

// pprReq is one admitted query. res is buffered so a batch can
// deliver the outcome after the requester has given up.
type pprReq struct {
	src int // engine ID space
	ctx context.Context
	res chan laneOutcome
}

// laneOutcome is what a query gets back: the lane result (ranks in
// engine ID space) plus the width of the batch it rode in, or a
// terminal error.
type laneOutcome struct {
	res   analytics.LaneResult
	lanes int
	err   error
}

// admit enqueues a query or sheds it. Shedding is load feedback, not
// failure: the caller maps ErrOverloaded to 429 + Retry-After.
func (s *Server) admit(r *pprReq) error {
	faultinject.Fire(faultinject.SiteServeAdmit)
	if s.draining.Load() {
		s.m.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case s.reqCh <- r:
		s.m.admitted.Add(1)
		s.m.queueDepth.Add(1)
		return nil
	default:
		s.m.shed.Add(1)
		return ErrOverloaded
	}
}

// dispatcher is the single coalescing loop: take the oldest queued
// query, hold the batch open for FillWindow (or until K lanes are
// full), then run it on the next free slot. Admission stays decoupled
// — while every slot is busy the queue keeps absorbing arrivals up to
// QueueLimit and sheds beyond it.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	for {
		var first *pprReq
		select {
		case first = <-s.reqCh:
		case <-s.done:
			s.failQueued()
			return
		}
		batch := []*pprReq{first}
		timer := time.NewTimer(s.cfg.FillWindow)
		for len(batch) < s.cfg.Lanes {
			select {
			case r := <-s.reqCh:
				batch = append(batch, r)
				continue
			case <-timer.C:
			case <-s.done:
			}
			break
		}
		timer.Stop()
		s.m.queueDepth.Add(-int64(len(batch)))
		var sl *slot
		select {
		case sl = <-s.slots:
		case <-s.baseCtx.Done():
			for _, r := range batch {
				r.res <- laneOutcome{err: errDraining}
			}
			s.failQueued()
			return
		}
		s.m.batches.Add(1)
		s.m.laneFill[len(batch)-1].Add(1)
		s.wg.Add(1)
		go s.runBatch(sl, batch)
		select {
		case <-s.done:
			s.failQueued()
			return
		default:
		}
	}
}

// failQueued drains whatever is still queued at shutdown.
func (s *Server) failQueued() {
	for {
		select {
		case r := <-s.reqCh:
			s.m.queueDepth.Add(-1)
			r.res <- laneOutcome{err: errDraining}
		default:
			return
		}
	}
}

// runBatch drives one coalesced batch to completion. Numeric faults
// are absorbed inside RunPPRLanes (rollback to its in-memory
// snapshot); a panic — a poisoned worker, an injected fault — fails
// only the batch attempt: the lanes already answered keep their
// results (RunPPRLanes' emitted guard delivered them), and the rest
// are re-dispatched as a narrower batch after a jittered backoff, at
// most maxBatchRetries times.
func (s *Server) runBatch(sl *slot, reqs []*pprReq) {
	defer s.wg.Done()
	defer func() { s.slots <- sl }()
	opt := analytics.PageRankOptions{
		Damping:              s.cfg.Query.Damping,
		MaxIters:             s.cfg.Query.MaxIters,
		Tol:                  s.cfg.Query.Tol,
		RedistributeDangling: s.cfg.Query.RedistributeDangling,
		CheckpointEvery:      s.cfg.CheckpointEvery,
	}
	outstanding := reqs
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		answered := make([]bool, len(outstanding))
		lanes := make([]analytics.LaneRequest, len(outstanding))
		for j, r := range outstanding {
			lanes[j] = analytics.LaneRequest{Source: r.src, Ctx: r.ctx}
		}
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("serve: batch panic: %v", p)
				}
			}()
			faultinject.Fire(faultinject.SiteServeBatch)
			return analytics.RunPPRLanes(s.baseCtx, sl.eng, s.outDeg, sl.pool, lanes, opt, func(res analytics.LaneResult) {
				answered[res.Lane] = true
				s.m.served.Add(1)
				switch res.Status {
				case analytics.LaneDeadline:
					s.m.deadline.Add(1)
				case analytics.LaneCancelled:
					s.m.cancelled.Add(1)
				}
				outstanding[res.Lane].res <- laneOutcome{res: res, lanes: len(lanes)}
			})
		}()
		if err == nil {
			return
		}
		var left []*pprReq
		for j, r := range outstanding {
			if !answered[j] {
				left = append(left, r)
			}
		}
		if len(left) == 0 {
			return
		}
		if attempt >= maxBatchRetries || s.baseCtx.Err() != nil {
			s.log.Error("batch failed", "err", err, "lanes", len(left), "attempts", attempt+1)
			for _, r := range left {
				r.res <- laneOutcome{err: err}
			}
			return
		}
		s.m.batchRetries.Add(1)
		s.log.Warn("batch retry", "err", err, "lanes", len(left), "attempt", attempt+1)
		time.Sleep(jitter(backoff))
		backoff *= 2
		outstanding = left
	}
}

// QueryPPR admits one personalized-PageRank query for the original
// vertex src and blocks until its lane completes (the common HTTP
// path wraps this with the request context carrying the deadline).
// The returned ranks are in ORIGINAL vertex-ID space.
func (s *Server) QueryPPR(ctx context.Context, src uint32) (PPRAnswer, error) {
	if int(src) >= s.n {
		return PPRAnswer{}, &SourceError{Source: src, NumV: s.n}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req := &pprReq{src: s.toEngine(src), ctx: ctx, res: make(chan laneOutcome, 1)}
	if err := s.admit(req); err != nil {
		return PPRAnswer{}, err
	}
	out := <-req.res
	if out.err != nil {
		return PPRAnswer{}, out.err
	}
	r := out.res
	ans := PPRAnswer{
		Source: src, Status: r.Status.String(),
		Converged: r.Converged(), Iters: r.Iters, Delta: r.Delta,
		Lane: r.Lane, Lanes: out.lanes,
	}
	if r.Status == analytics.LaneCancelled {
		return ans, context.Canceled
	}
	ans.Ranks = s.toOriginal(r.Ranks)
	return ans, nil
}

// SourceError is QueryPPR's error for a source vertex outside the
// served graph, refused before admission; the HTTP layer answers it
// with 400.
type SourceError struct {
	Source uint32
	NumV   int
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("serve: vertex %d out of [0,%d)", e.Source, e.NumV)
}

// PPRAnswer is a completed query in original ID space. Status
// "deadline" carries partial ranks with Converged false — the
// degraded mode under load.
type PPRAnswer struct {
	Source    uint32    `json:"source"`
	Status    string    `json:"status"`
	Converged bool      `json:"converged"`
	Iters     int       `json:"iters"`
	Delta     float64   `json:"delta"`
	Lane      int       `json:"lane"`
	Lanes     int       `json:"lanes"`
	Ranks     []float64 `json:"-"`
}
