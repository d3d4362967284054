package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// sparseKernels is the ablation matrix: every selectable sparse kernel
// must be bit-for-bit identical to the baseline pull.
var sparseKernels = []SparseKernel{SparsePull, SparsePullDegree}

// TestSparseKernelDifferential pins both sparse kernels bit-for-bit
// against the spmv.Pull baseline, across graphs and worker counts.
// Each row is summed whole by one worker in ascending source order
// (see sparse.go), so exact equality must hold at every worker count.
func TestSparseKernelDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		src := integerVec(4321, g.NumV)
		var want []float64
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()

				pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pullDst := make([]float64, g.NumV)
				pe.Step(src, pullDst)
				if want == nil {
					want = pullDst
				} else {
					requireBitIdentical(t, "pull-across-workers", want, pullDst)
				}

				ih, err := Build(g, Params{HubsPerBlock: 64})
				if err != nil {
					t.Fatal(err)
				}
				for _, kernel := range sparseKernels {
					e, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: kernel})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("kernel=%v", kernel)
					requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
					// Second step: schedulers and gates must have been
					// left re-armed by the first.
					requireBitIdentical(t, label+" (second step)", want, stepOldSpace(ih, e, src))
				}
			})
		}
	}
}

// TestSparseKernelSignedZero runs the differential with negative values
// and -0.0 sources: both sparse kernels — and the standalone
// spmv.PropBlocked baseline, whose bin phase skips zeros — must stay
// bit-identical to pull (only +0.0, the additive identity, may be
// skipped; see signedVec).
func TestSparseKernelSignedZero(t *testing.T) {
	for name, g := range diffGraphs(t) {
		src := signedVec(31, g.NumV)
		pool := sched.NewPool(3)
		defer pool.Close()

		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		// Standalone propagation-blocked baseline, including a small
		// bucket width so multi-bucket replay is exercised.
		for _, rows := range []int{0, 512} {
			be, err := spmv.NewEngine(g, pool, spmv.PropBlocked, spmv.Options{BucketRows: rows})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, g.NumV)
			be.Step(src, got)
			requireBitIdentical(t, fmt.Sprintf("%s/prop-blocked rows=%d", name, rows), want, got)
		}

		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range sparseKernels {
			e, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/kernel=%v", name, kernel)
			requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
		}
	}
}

// TestSparseKernelBatchDifferential pins StepBatch under every sparse
// kernel bit-for-bit against K scalar Steps of the same engine (which
// the scalar differential pins to pull), fused and phase by phase
// (phasedStep).
func TestSparseKernelBatchDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(3)
		defer pool.Close()
		for _, kernel := range sparseKernels {
			e, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			for _, phased := range []bool{false, true} {
				step := e.Step
				if phased {
					step = phasedEngine{e}.Step
				}
				for _, k := range []int{2, 4} {
					label := fmt.Sprintf("%s/kernel=%v phased=%v/k%d", name, kernel, phased, k)
					t.Run(label, func(t *testing.T) {
						lanes, src := packLanes(99, ih.NumV, k)
						want := make([][]float64, k)
						for j := 0; j < k; j++ {
							want[j] = make([]float64, ih.NumV)
							step(lanes[j], want[j])
						}
						dst := make([]float64, ih.NumV*k)
						e.StepBatch(src, dst, k)
						got := make([]float64, ih.NumV)
						for j := 0; j < k; j++ {
							for v := 0; v < ih.NumV; v++ {
								got[v] = dst[v*k+j]
							}
							requireBitIdentical(t, fmt.Sprintf("lane %d", j), want[j], got)
						}
					})
				}
			}
		}
	}
}

// TestSparseKernelBreakdownSplit pins the per-phase busy clocks under
// every sparse kernel: the sparse pull is charged to SparseBusy and
// nowhere else, SparseTotalBusy reports exactly it, the flipped push
// keeps its own clock, and TotalBusy sums exactly the three phase
// clocks.
func TestSparseKernelBreakdownSplit(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(4000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(2, g.NumV)
	dst := make([]float64, g.NumV)
	for _, kernel := range sparseKernels {
		e, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Step(src, dst)
		}
		b := e.TakeBreakdown()
		if b.SparseBusy <= 0 || b.FlippedBusy <= 0 {
			t.Fatalf("%v: phase clocks not split: flipped %v sparse %v", kernel, b.FlippedBusy, b.SparseBusy)
		}
		if b.SparseTotalBusy() != b.SparseBusy {
			t.Fatalf("%v: SparseTotalBusy %v, SparseBusy %v", kernel, b.SparseTotalBusy(), b.SparseBusy)
		}
		if b.TotalBusy() != b.FlippedBusy+b.MergeBusy+b.SparseBusy {
			t.Fatalf("%v: TotalBusy does not sum the phase clocks", kernel)
		}
	}
}

// TestSparseKernelAllocationFree pins the zero-allocation steady state
// of both sparse kernels: after warm-up, neither Step nor a
// stable-width StepBatch allocates.
func TestSparseKernelAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	for _, kernel := range sparseKernels {
		e, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		src := integerVec(3, g.NumV)
		dst := make([]float64, g.NumV)
		_, bsrc := packLanes(3, g.NumV, k)
		bdst := make([]float64, g.NumV*k)
		for i := 0; i < 3; i++ { // warm worker stacks and the batch state
			e.Step(src, dst)
			e.StepBatch(bsrc, bdst, k)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
			t.Errorf("%v: Step allocates %.1f objects per run, want 0", kernel, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(bsrc, bdst, k) }); allocs != 0 {
			t.Errorf("%v: StepBatch allocates %.1f objects per run, want 0", kernel, allocs)
		}
	}
}

// TestPropBlockedStepAllocFree pins the standalone spmv baseline the
// same way (its direction list already runs the generic alloc test;
// this one pins the non-default bucket width).
func TestPropBlockedStepAllocFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	e, err := spmv.NewEngine(g, pool, spmv.PropBlocked, spmv.Options{BucketRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	e.Step(src, dst)
	if allocs := testing.AllocsPerRun(10, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("prop-blocked Step allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSparseKernelCancelThenCleanStep drives randomised cancellation
// through both sparse kernels' claim loops: the engine must recover to
// exact results on the next clean step.
func TestSparseKernelCancelThenCleanStep(t *testing.T) {
	for _, kernel := range sparseKernels {
		e, _ := faultTestEngine(t, EngineOptions{SparseKernel: kernel})
		n := e.NumVertices()
		src := randomSrc(n, 77)
		ref := make([]float64, n)
		e.Step(src, ref)

		dst := make([]float64, n)
		for seed := uint64(0); seed < 12; seed++ {
			to := time.Duration(faultinject.SeededAfter(seed, "test.sparse-cancel", 400)) * time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), to)
			err := e.StepCtx(ctx, src, dst)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%v seed %d: err = %v, want nil or DeadlineExceeded", kernel, seed, err)
			}
			if err := e.StepCtx(nil, src, dst); err != nil {
				t.Fatalf("%v seed %d: clean step: %v", kernel, seed, err)
			}
			wantClose(t, "clean step after cancel", dst, ref)
		}
	}
}

// TestSparseKernelInjectedPanicRecovery injects panics at the
// sparse-part site of both sparse schedules: the panic must surface as *sched.PanicError unwrapping to
// the injected fault, and the very next clean step must match.
func TestSparseKernelInjectedPanicRecovery(t *testing.T) {
	cases := []struct {
		kernel SparseKernel
		sites  []faultinject.Site
	}{
		{SparsePull, []faultinject.Site{faultinject.SiteSparsePart}},
		{SparsePullDegree, []faultinject.Site{faultinject.SiteSparsePart}},
	}
	for _, tc := range cases {
		e, _ := faultTestEngine(t, EngineOptions{SparseKernel: tc.kernel})
		n := e.NumVertices()
		src := randomSrc(n, 13)
		ref := make([]float64, n)
		e.Step(src, ref)

		dst := make([]float64, n)
		for _, site := range tc.sites {
			for after := int64(0); after < 3; after++ {
				plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
				faultinject.Activate(plan)
				err := e.StepCtx(nil, src, dst)
				faultinject.Deactivate()
				if plan.Fired(site) == 0 {
					if err != nil {
						t.Fatalf("%v/%s after=%d: err = %v with no fault fired", tc.kernel, site, after, err)
					}
				} else {
					var perr *sched.PanicError
					if !errors.As(err, &perr) {
						t.Fatalf("%v/%s after=%d: err = %v, want *sched.PanicError", tc.kernel, site, after, err)
					}
					var ip *faultinject.InjectedPanic
					if !errors.As(err, &ip) || ip.Site != site {
						t.Fatalf("%v/%s after=%d: PanicError does not unwrap to the injected fault: %v", tc.kernel, site, after, err)
					}
				}
				if err := e.StepCtx(nil, src, dst); err != nil {
					t.Fatalf("%v/%s after=%d: clean step: %v", tc.kernel, site, after, err)
				}
				wantClose(t, "clean step after injected panic", dst, ref)
			}
		}
	}
}

// TestSparseKernelSerializeRoundTrip checks the lazy degree-bucket
// path: the v1 serialization format does not store Heavy/HeavyDeg, so
// a deserialized IHTL must re-derive them on first SparsePullDegree
// engine construction — deterministically, since the threshold is a
// pure function of the sparse CSC — and produce bit-identical results.
func TestSparseKernelSerializeRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(3000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ih.Sparse.HeavyDeg == 0 {
		t.Fatal("build did not derive degree buckets")
	}
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ih2, err := ReadIHTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ih2.Sparse.HeavyDeg != 0 || ih2.Sparse.Heavy != nil {
		t.Fatal("v1 format unexpectedly carries degree buckets; update this test and the lazy path")
	}

	e1, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: SparsePullDegree})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngineOpts(ih2, testPool, EngineOptions{SparseKernel: SparsePullDegree})
	if err != nil {
		t.Fatal(err)
	}
	if ih2.Sparse.HeavyDeg != ih.Sparse.HeavyDeg {
		t.Fatalf("lazy HeavyDeg = %d, build-time %d", ih2.Sparse.HeavyDeg, ih.Sparse.HeavyDeg)
	}
	if len(ih2.Sparse.Heavy) != len(ih.Sparse.Heavy) {
		t.Fatalf("lazy |Heavy| = %d, build-time %d", len(ih2.Sparse.Heavy), len(ih.Sparse.Heavy))
	}
	for i := range ih.Sparse.Heavy {
		if ih2.Sparse.Heavy[i] != ih.Sparse.Heavy[i] {
			t.Fatalf("Heavy[%d] = %d, want %d", i, ih2.Sparse.Heavy[i], ih.Sparse.Heavy[i])
		}
	}
	src := integerVec(8, g.NumV)
	got1 := stepOldSpace(ih, e1, src)
	got2 := stepOldSpace(ih2, e2, src)
	requireBitIdentical(t, "deserialized engine", got1, got2)
}

// TestEnsureDegreeBuckets checks the heavy-list derivation directly:
// threshold formula, membership, ordering, idempotence, and that the
// parallel build's count/prefix/fill pass agrees with the sequential
// derivation.
func TestEnsureDegreeBuckets(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	sp := &seq.Sparse
	n := seq.NumV - sp.DestLo
	if n <= 0 {
		t.Skip("no sparse rows")
	}
	mean := sp.Index[n] / int64(n)
	wantDeg := int64(64)
	if 8*mean > wantDeg {
		wantDeg = 8 * mean
	}
	if sp.HeavyDeg != wantDeg {
		t.Fatalf("HeavyDeg = %d, want max(64, 8*%d) = %d", sp.HeavyDeg, mean, wantDeg)
	}
	prev := int32(-1)
	for _, r := range sp.Heavy {
		if r <= prev {
			t.Fatalf("Heavy not strictly ascending at row %d", r)
		}
		prev = r
		if d := sp.Index[r+1] - sp.Index[r]; d < sp.HeavyDeg {
			t.Fatalf("Heavy row %d has degree %d < threshold %d", r, d, sp.HeavyDeg)
		}
	}
	nHeavy := 0
	for i := 0; i < n; i++ {
		if sp.Index[i+1]-sp.Index[i] >= sp.HeavyDeg {
			nHeavy++
		}
	}
	if nHeavy != len(sp.Heavy) {
		t.Fatalf("|Heavy| = %d, brute force %d", len(sp.Heavy), nHeavy)
	}
	before := len(sp.Heavy)
	sp.EnsureDegreeBuckets() // must be a no-op the second time
	if len(sp.Heavy) != before {
		t.Fatal("EnsureDegreeBuckets is not idempotent")
	}

	par, err := BuildWith(g, Params{HubsPerBlock: 64}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	if par.Sparse.HeavyDeg != sp.HeavyDeg || len(par.Sparse.Heavy) != len(sp.Heavy) {
		t.Fatalf("parallel build degree buckets differ: deg %d/%d, len %d/%d",
			par.Sparse.HeavyDeg, sp.HeavyDeg, len(par.Sparse.Heavy), len(sp.Heavy))
	}
	for i := range sp.Heavy {
		if par.Sparse.Heavy[i] != sp.Heavy[i] {
			t.Fatalf("parallel Heavy[%d] = %d, want %d", i, par.Sparse.Heavy[i], sp.Heavy[i])
		}
	}
}

// TestParseSparseKernel pins the flag surface of the ablation.
func TestParseSparseKernel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SparseKernel
	}{
		{"", SparseAuto}, {"auto", SparseAuto}, {"pull", SparsePull},
		{"pull-degree", SparsePullDegree},
	} {
		got, err := ParseSparseKernel(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSparseKernel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String round trip: %v -> %q", got, got.String())
		}
	}
	for _, bad := range []string{"bogus", "pb"} {
		if _, err := ParseSparseKernel(bad); err == nil {
			t.Fatalf("ParseSparseKernel accepted %q", bad)
		}
	}
}
