package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// The interfaces the analytics functions type-assert for. A wrapper that
// misses one sends RunPageRank or RunPPRLanes down a different,
// unfused path.
type (
	fusedStepper interface {
		spmv.Stepper
		StepEpi(src, dst []float64, epi func(w, lo, hi int))
		StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error
		Workers() int
	}
	batchFusedStepper interface {
		spmv.BatchStepper
		StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int))
		StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error
		Workers() int
	}
)

var (
	_ fusedStepper         = (*tracedEngine)(nil)
	_ batchFusedStepper    = (*tracedEngine)(nil)
	_ spmv.CtxStepper      = (*tracedEngine)(nil)
	_ spmv.BatchCtxStepper = (*tracedEngine)(nil)
)

// TestTracedEngineForwardsEveryStepMethod fails when the engine grows a
// stepping method the wrapper does not forward.
func TestTracedEngineForwardsEveryStepMethod(t *testing.T) {
	et := reflect.TypeOf((*core.Engine)(nil))
	wt := reflect.TypeOf((*tracedEngine)(nil))
	for i := 0; i < et.NumMethod(); i++ {
		m := et.Method(i)
		if !strings.HasPrefix(m.Name, "Step") && m.Name != "Workers" && m.Name != "NumVertices" {
			continue
		}
		wm, ok := wt.MethodByName(m.Name)
		if !ok {
			t.Errorf("tracedEngine does not forward %s", m.Name)
			continue
		}
		// Compare signatures without the receiver.
		if a, b := m.Type, wm.Type; a.NumIn() != b.NumIn() || a.NumOut() != b.NumOut() {
			t.Errorf("%s: signature %v, wrapper has %v", m.Name, a, b)
		} else {
			for j := 1; j < a.NumIn(); j++ {
				if a.In(j) != b.In(j) {
					t.Errorf("%s: argument %d is %v, wrapper has %v", m.Name, j, a.In(j), b.In(j))
				}
			}
			for j := 0; j < a.NumOut(); j++ {
				if a.Out(j) != b.Out(j) {
					t.Errorf("%s: result %d is %v, wrapper has %v", m.Name, j, a.Out(j), b.Out(j))
				}
			}
		}
	}
}

// testEngine builds a small deterministic engine: StaticFlipped makes
// repeated runs bit-for-bit reproducible, so any difference between a
// traced and an untraced run would come from the wrapper.
func testEngine(t *testing.T, pool *sched.Pool, mmap bool) (*core.IHTL, *core.Engine, []int) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(11, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := core.BuildWith(g, core.Params{HubsPerBlock: 256}, pool)
	if err != nil {
		t.Fatal(err)
	}
	outDeg := ih.OutDegrees()
	if mmap {
		path := filepath.Join(t.TempDir(), "e.ihtl2")
		if err := ih.SaveFileV2(path); err != nil {
			t.Fatal(err)
		}
		ef, err := core.OpenEngineFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ef.Close() })
		ih = ef.IHTL()
	}
	eng, err := core.NewEngineOpts(ih, pool, core.EngineOptions{StaticFlipped: true})
	if err != nil {
		t.Fatal(err)
	}
	return ih, eng, outDeg
}

func TestTracedPageRankIsBitwiseUntraced(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, mmap := range []bool{false, true} {
		_, eng, outDeg := testEngine(t, pool, mmap)
		opt := analytics.PageRankOptions{Tol: 1e-9, MaxIters: 200}
		plain, err := analytics.RunPageRank(eng, outDeg, pool, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		te := &tracedEngine{e: eng, tr: tr, parent: tr.begin("analytics.pagerank", 0)}
		traced, err := analytics.RunPageRank(te, outDeg, pool, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Iters != traced.Iters {
			t.Fatalf("mmap=%v: iters %d untraced, %d traced", mmap, plain.Iters, traced.Iters)
		}
		for v := range plain.Ranks {
			if math.Float64bits(plain.Ranks[v]) != math.Float64bits(traced.Ranks[v]) {
				t.Fatalf("mmap=%v: rank %d differs: %v untraced, %v traced", mmap, v, plain.Ranks[v], traced.Ranks[v])
			}
		}
		// One fused step span per iteration, all under the RunPageRank span.
		if n := len(tr.children(stepName, te.parent)); n != traced.Iters || len(te.durs) != n {
			t.Fatalf("mmap=%v: %d step spans, %d durations for %d iterations", mmap, n, len(te.durs), traced.Iters)
		}
	}
}

func TestTracedPPRLanesAreBitwiseUntraced(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	ih, eng, outDeg := testEngine(t, pool, true)
	lanes := []analytics.LaneRequest{{Source: 0}, {Source: 1}, {Source: int(ih.NewID[5])}, {Source: 17}}
	opt := analytics.PageRankOptions{Tol: 1e-6, RedistributeDangling: true}
	run := func(e spmv.BatchStepper) []analytics.LaneResult {
		res := make([]analytics.LaneResult, len(lanes))
		if err := analytics.RunPPRLanes(context.Background(), e, outDeg, pool, lanes, opt, func(r analytics.LaneResult) {
			res[r.Lane] = r
		}); err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(eng)
	tr := newTracer()
	te := &tracedEngine{e: eng, tr: tr}
	traced := run(te)
	for j := range lanes {
		p, q := plain[j], traced[j]
		if p.Iters != q.Iters || p.Status != q.Status {
			t.Fatalf("lane %d: %v/%d untraced, %v/%d traced", j, p.Status, p.Iters, q.Status, q.Iters)
		}
		for v := range p.Ranks {
			if math.Float64bits(p.Ranks[v]) != math.Float64bits(q.Ranks[v]) {
				t.Fatalf("lane %d rank %d differs", j, v)
			}
		}
	}
	if len(tr.children(batchName, 0)) == 0 {
		t.Fatal("no batched step spans recorded")
	}
}
