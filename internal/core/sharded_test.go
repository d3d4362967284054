package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// shardedStepOldSpace runs one sharded Step with old-ID-space vectors,
// permuting in and out like stepOldSpace.
func shardedStepOldSpace(se *ShardedEngine, srcOld []float64) []float64 {
	sg := se.Sharded()
	n := sg.NumV
	srcNew := make([]float64, n)
	dstNew := make([]float64, n)
	sg.PermuteToNew(srcOld, srcNew)
	se.Step(srcNew, dstNew)
	dstOld := make([]float64, n)
	sg.PermuteToOld(dstNew, dstOld)
	return dstOld
}

// shardedDiffOptions is the engine-config axis of the sharded
// differential: the fused pipeline, the atomic ablation, every sparse
// kernel, and both block encodings.
func shardedDiffOptions() map[string]EngineOptions {
	return map[string]EngineOptions{
		"fused":              {},
		"atomic":             {AtomicFlipped: true},
		"pull":               {SparseKernel: SparsePull},
		"pull-degree":        {SparseKernel: SparsePullDegree},
		"varint":             {BlockEncoding: EncodingVarint},
		"pull-degree-varint": {SparseKernel: SparsePullDegree, BlockEncoding: EncodingVarint},
	}
}

// TestShardedStepDifferential pins sharded execution (N ∈ {2, 4}) to
// the spmv.Pull baseline — and therefore to the unsharded engine,
// which the fused differential pins to the same baseline — bit-for-bit
// across graphs, worker counts, flipped modes, sparse kernels and block
// encodings, for integer sources and for signed sources containing
// -0.0 (the zero-skip bit-transparency regime; see signedVec).
func TestShardedStepDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		srcInt := integerVec(1234, g.NumV)
		srcSigned := signedVec(77, g.NumV)
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()

				pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantInt := make([]float64, g.NumV)
				pe.Step(srcInt, wantInt)
				wantSigned := make([]float64, g.NumV)
				pe.Step(srcSigned, wantSigned)

				for _, nshards := range []int{2, 4} {
					sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, pool, nshards)
					if err != nil {
						t.Fatal(err)
					}
					if name != "paper" && sg.CrossEdges() == 0 {
						t.Fatalf("%d-shard cut of %s has no cross edges; the exchange is untested", nshards, name)
					}
					for optName, opt := range shardedDiffOptions() {
						se, err := NewShardedEngineOpts(sg, pool, opt)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("n%d/%s", nshards, optName)
						requireBitIdentical(t, label, wantInt, shardedStepOldSpace(se, srcInt))
						// Second step on the same engine: the exchange
						// cursors and every sub-engine's buffers must have
						// been left clean.
						requireBitIdentical(t, label+" (second step)", wantInt, shardedStepOldSpace(se, srcInt))
						requireBitIdentical(t, label+" signed", wantSigned, shardedStepOldSpace(se, srcSigned))
					}
				}
			})
		}
	}
}

// TestShardedStepBatchDifferential pins the K-wide sharded step: lane j
// of a StepBatch must be bit-identical to a scalar sharded Step of lane
// j's source — on default engines, varint ones, and AtomicFlipped ones,
// whose StepBatch runs the buffered batch pipeline.
func TestShardedStepBatchDifferential(t *testing.T) {
	const k = 3
	for name, g := range diffGraphs(t) {
		pool := sched.NewPool(3)
		defer pool.Close()
		sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, pool, 2)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([][]float64, k)
		srcB := make([]float64, g.NumV*k)
		for j := range lanes {
			lanes[j] = signedVec(uint64(100+j), g.NumV)
			for v := 0; v < g.NumV; v++ {
				srcB[v*k+j] = lanes[j][v]
			}
		}
		for optName, opt := range map[string]EngineOptions{
			"fused":  {},
			"varint": {BlockEncoding: EncodingVarint},
			"atomic": {AtomicFlipped: true},
		} {
			se, err := NewShardedEngineOpts(sg, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			srcNew := make([]float64, g.NumV*k)
			dstNew := make([]float64, g.NumV*k)
			sg.PermuteToNewBatch(srcB, srcNew, k)
			se.StepBatch(srcNew, dstNew, k)
			dstB := make([]float64, g.NumV*k)
			sg.PermuteToOldBatch(dstNew, dstB, k)
			for j := 0; j < k; j++ {
				want := shardedStepOldSpace(se, lanes[j])
				got := make([]float64, g.NumV)
				for v := 0; v < g.NumV; v++ {
					got[v] = dstB[v*k+j]
				}
				requireBitIdentical(t, fmt.Sprintf("%s/%s lane %d", name, optName, j), want, got)
			}
		}
	}
}

// TestShardedStepEpi checks the fused epilogue contract over a sharded
// engine: epi runs once per element after all of dst — local pipelines
// AND the cross-shard drain — is complete.
func TestShardedStepEpi(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, testPool, 3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sg, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(9, g.NumV)
	srcNew := make([]float64, g.NumV)
	sg.PermuteToNew(src, srcNew)
	want := make([]float64, g.NumV)
	se.Step(srcNew, want)
	for v := range want {
		want[v] = 2*want[v] + 1
	}
	got := make([]float64, g.NumV)
	se.StepEpi(srcNew, got, func(w, lo, hi int) {
		if w < 0 || w >= se.Workers() {
			panic("epilogue worker index out of range")
		}
		for v := lo; v < hi; v++ {
			got[v] = 2*got[v] + 1
		}
	})
	requireBitIdentical(t, "sharded StepEpi", want, got)
}

// TestShardedStepAllocationFree pins the sharded fused pipeline's
// zero-allocation steady state for Step and StepBatch.
func TestShardedStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, testPool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sg.CrossEdges() == 0 {
		t.Fatal("fixture has no cross edges; the exchange path would not be pinned")
	}
	se, err := NewShardedEngine(sg, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		se.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { se.Step(src, dst) }); allocs != 0 {
		t.Errorf("sharded Step allocates %.1f objects per run, want 0", allocs)
	}

	const k = 4
	srcB := integerVec(4, g.NumV*k)
	dstB := make([]float64, g.NumV*k)
	for i := 0; i < 3; i++ {
		se.StepBatch(srcB, dstB, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { se.StepBatch(srcB, dstB, k) }); allocs != 0 {
		t.Errorf("sharded StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

func shardedFaultEngine(t *testing.T, opt EngineOptions) *ShardedEngine {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := BuildShardedCtx(context.Background(), g, Params{}, testPool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sg.CrossEdges() == 0 {
		t.Fatal("fixture graph has no cross-shard edges; exchange fault sites would be dead")
	}
	se, err := NewShardedEngineOpts(sg, testPool, opt)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestShardedStepCtxInjectedPanicRecovery lands injected panics on the
// exchange's bin (SiteShardPush) and drain (SiteShardExchange) sites —
// plus a sub-engine site, proving faults inside a shard's private
// pipeline surface through the sharded dispatch — and checks the next
// clean step is unaffected.
func TestShardedStepCtxInjectedPanicRecovery(t *testing.T) {
	se := shardedFaultEngine(t, EngineOptions{})
	n := se.NumVertices()
	src := randomSrc(n, 5)
	ref := make([]float64, n)
	se.Step(src, ref)

	sites := []faultinject.Site{
		faultinject.SiteShardPush,
		faultinject.SiteShardExchange,
		faultinject.SiteFlippedTask,
	}
	dst := make([]float64, n)
	for _, site := range sites {
		for after := int64(0); after < 3; after++ {
			plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
			faultinject.Activate(plan)
			err := se.StepCtx(nil, src, dst)
			faultinject.Deactivate()
			if plan.Fired(site) == 0 {
				if err != nil {
					t.Fatalf("%s after=%d: err = %v with no fault fired", site, after, err)
				}
			} else {
				var perr *sched.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("%s after=%d: err = %v, want *sched.PanicError", site, after, err)
				}
				var ip *faultinject.InjectedPanic
				if !errors.As(err, &ip) || ip.Site != site {
					t.Fatalf("%s after=%d: PanicError does not unwrap to the injected fault: %v", site, after, err)
				}
			}
			if err := se.StepCtx(nil, src, dst); err != nil {
				t.Fatalf("%s after=%d: clean step: %v", site, after, err)
			}
			wantClose(t, "clean sharded step after injected panic", dst, ref)
		}
	}
}

// TestShardedStepCtxCancelThenCleanStep randomises a cancellation point
// inside sharded steps and checks the engine recovers.
func TestShardedStepCtxCancelThenCleanStep(t *testing.T) {
	se := shardedFaultEngine(t, EngineOptions{})
	n := se.NumVertices()
	src := randomSrc(n, 99)
	ref := make([]float64, n)
	se.Step(src, ref)

	dst := make([]float64, n)
	for seed := uint64(0); seed < 12; seed++ {
		to := time.Duration(faultinject.SeededAfter(seed, "test.shard-cancel", 400)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), to)
		err := se.StepCtx(ctx, src, dst)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("seed %d: err = %v, want nil or DeadlineExceeded", seed, err)
		}
		if err := se.StepCtx(nil, src, dst); err != nil {
			t.Fatalf("seed %d: clean step: %v", seed, err)
		}
		wantClose(t, "clean sharded step after cancel", dst, ref)
	}
}

// TestShardedHealthVerdicts checks the sharded watchdog end to end:
// poison through SiteStepHealth fails the step under HealthError and
// is absorbed under HealthClamp.
func TestShardedHealthVerdicts(t *testing.T) {
	se := shardedFaultEngine(t, EngineOptions{Health: spmv.HealthPolicy{Mode: spmv.HealthError}})
	n := se.NumVertices()
	src := randomSrc(n, 17)
	dst := make([]float64, n)
	if err := se.StepCtx(nil, src, dst); err != nil {
		t.Fatalf("clean sharded step under watchdog: %v", err)
	}
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	err := se.StepCtx(nil, src, dst)
	faultinject.Deactivate()
	var nerr *spmv.NumericError
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want *spmv.NumericError", err)
	}

	clamp := shardedFaultEngine(t, EngineOptions{Health: spmv.HealthPolicy{Mode: spmv.HealthClamp}})
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	err = clamp.StepCtx(nil, src, dst)
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("clamp mode surfaced an error: %v", err)
	}
	for i, x := range dst {
		if !isFinite(x) {
			t.Fatalf("dst[%d] = %g survived the clamp", i, x)
		}
	}
}

// TestBuildShardedInvariants checks the shard plan's structural
// invariants on a few graphs: bounds cover [0, NumV), every edge is
// routed exactly once, ShardOf inverts the bounds, the permutation is
// a bijection consistent with the shard-local relabelings, and the
// exchange rows are ascending per source.
func TestBuildShardedInvariants(t *testing.T) {
	for name, g := range diffGraphs(t) {
		for _, nshards := range []int{1, 2, 4, 7} {
			sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, testPool, nshards)
			if err != nil {
				t.Fatal(err)
			}
			if sg.Bounds[0] != 0 || sg.Bounds[len(sg.Bounds)-1] != g.NumV {
				t.Fatalf("%s/n%d: bounds %v do not cover [0, %d)", name, nshards, sg.Bounds, g.NumV)
			}
			if got := sg.LocalEdges() + sg.CrossEdges(); got != g.NumE {
				t.Fatalf("%s/n%d: local %d + cross %d != %d edges", name, nshards, sg.LocalEdges(), sg.CrossEdges(), g.NumE)
			}
			seen := make([]bool, g.NumV)
			for v := 0; v < g.NumV; v++ {
				nv := int(sg.NewID[v])
				s := sg.ShardOf(v)
				if v < sg.Bounds[s] || v >= sg.Bounds[s+1] {
					t.Fatalf("%s/n%d: ShardOf(%d) = %d outside its bounds", name, nshards, v, s)
				}
				if nv < sg.Bounds[s] || nv >= sg.Bounds[s+1] {
					t.Fatalf("%s/n%d: NewID[%d] = %d leaves shard %d's range", name, nshards, v, nv, s)
				}
				if seen[nv] {
					t.Fatalf("%s/n%d: NewID maps two vertices to %d", name, nshards, nv)
				}
				seen[nv] = true
				if int(sg.OldID[nv]) != v {
					t.Fatalf("%s/n%d: OldID[NewID[%d]] = %d", name, nshards, v, sg.OldID[nv])
				}
			}
			for u := 0; u < sg.NumV; u++ {
				row := sg.XRows[sg.XIndex[u]:sg.XIndex[u+1]]
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Fatalf("%s/n%d: exchange row of source %d not strictly ascending", name, nshards, u)
					}
				}
				s := sg.ShardOf(u)
				for _, d := range row {
					if int(d) >= sg.Bounds[s] && int(d) < sg.Bounds[s+1] {
						t.Fatalf("%s/n%d: exchange carries a local edge %d→%d", name, nshards, u, d)
					}
				}
			}
		}
	}
	if _, err := BuildSharded(nil, Params{}, testPool, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := BuildSharded(graph.PaperExample(), Params{}, testPool, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	// More shards than vertices clamps rather than failing.
	sg, err := BuildSharded(graph.PaperExample(), Params{}, testPool, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumShards() > sg.NumV {
		t.Fatalf("shard count %d not clamped to %d vertices", sg.NumShards(), sg.NumV)
	}
}

// TestNewEngineOptsRejectsShards pins the construction routing: the
// core constructor over a single IHTL refuses Shards > 1 (the public
// ihtl API routes that to BuildSharded + NewShardedEngineOpts).
func TestNewEngineOptsRejectsShards(t *testing.T) {
	ih, err := Build(graph.PaperExample(), Params{HubsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineOpts(ih, testPool, EngineOptions{Shards: 4}); err == nil {
		t.Fatal("core.NewEngineOpts accepted Shards > 1")
	}
}

// TestShardedBreakdownExchangeSplit checks a sharded engine with cross
// edges charges the exchange clocks and counts steps once.
func TestShardedBreakdownExchangeSplit(t *testing.T) {
	se := shardedFaultEngine(t, EngineOptions{})
	n := se.NumVertices()
	src := randomSrc(n, 31)
	dst := make([]float64, n)
	const steps = 4
	for i := 0; i < steps; i++ {
		se.Step(src, dst)
	}
	b := se.TakeBreakdown()
	if b.Steps != steps {
		t.Fatalf("Steps = %d, want %d", b.Steps, steps)
	}
	if b.ExchangeBinBusy <= 0 || b.ExchangeDrainBusy <= 0 {
		t.Fatalf("exchange clocks not charged: bin %v drain %v", b.ExchangeBinBusy, b.ExchangeDrainBusy)
	}
	if b.Wall <= 0 {
		t.Fatal("sharded Wall not recorded")
	}
	if after := se.TakeBreakdown(); after.Steps != 0 || after.Wall != 0 {
		t.Fatal("TakeBreakdown did not reset")
	}
}
