package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"ihtl/internal/core"
)

// span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// children returns the closed spans named name whose parent is parent
// (any parent when parent < 0).
func (t *tracer) children(name string, parent int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (parent < 0 || s.Parent == parent) && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// totalSeconds sums the durations of spans in seconds.
func totalSeconds(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d.Seconds()
}

// writeFile writes all spans as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedEngine wraps a *core.Engine and times every step. It forwards
// every method the analytics functions type-assert for (the fused
// epilogue, ctx and batch variants), so RunPageRank and RunPPRLanes
// take exactly the path they take on the bare engine. Each call's
// duration is kept in durs; with a tracer it is also recorded as a span
// named stepName (scalar steps) or batchName (batched steps) under
// parent.
type tracedEngine struct {
	e      *core.Engine
	tr     *tracer
	parent int
	durs   []time.Duration
}

const (
	stepName  = "core.step"
	batchName = "core.step_batch"
)

func (te *tracedEngine) start(name string) (int, time.Time) {
	return te.tr.begin(name, te.parent), time.Now()
}

func (te *tracedEngine) stop(id int, t0 time.Time) {
	te.durs = append(te.durs, time.Since(t0))
	te.tr.end(id)
}

func (te *tracedEngine) NumVertices() int { return te.e.NumVertices() }
func (te *tracedEngine) Workers() int     { return te.e.Workers() }

func (te *tracedEngine) Step(src, dst []float64) {
	id, t0 := te.start(stepName)
	te.e.Step(src, dst)
	te.stop(id, t0)
}

func (te *tracedEngine) StepEpi(src, dst []float64, epi func(w, lo, hi int)) {
	id, t0 := te.start(stepName)
	te.e.StepEpi(src, dst, epi)
	te.stop(id, t0)
}

func (te *tracedEngine) StepCtx(ctx context.Context, src, dst []float64) error {
	id, t0 := te.start(stepName)
	err := te.e.StepCtx(ctx, src, dst)
	te.stop(id, t0)
	return err
}

func (te *tracedEngine) StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error {
	id, t0 := te.start(stepName)
	err := te.e.StepEpiCtx(ctx, src, dst, epi)
	te.stop(id, t0)
	return err
}

func (te *tracedEngine) StepBatch(src, dst []float64, k int) {
	id, t0 := te.start(batchName)
	te.e.StepBatch(src, dst, k)
	te.stop(id, t0)
}

func (te *tracedEngine) StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) {
	id, t0 := te.start(batchName)
	te.e.StepBatchEpi(src, dst, k, epi)
	te.stop(id, t0)
}

func (te *tracedEngine) StepBatchCtx(ctx context.Context, src, dst []float64, k int) error {
	id, t0 := te.start(batchName)
	err := te.e.StepBatchCtx(ctx, src, dst, k)
	te.stop(id, t0)
	return err
}

func (te *tracedEngine) StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	id, t0 := te.start(batchName)
	err := te.e.StepBatchEpiCtx(ctx, src, dst, k, epi)
	te.stop(id, t0)
	return err
}
