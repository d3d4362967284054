package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// The differential tests below pin the fused single-dispatch pipeline
// and its AtomicFlipped ablation to the spmv.Pull baseline
// BIT-FOR-BIT. Exact float equality across schedules is only
// meaningful when every partial sum is exact, so sources are small
// integer-valued floats: all sums stay integers far below 2^53 and
// addition is associative, making the result independent of task→
// worker assignment, merge order, and buffer skipping.
func integerVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Uint64n(8))
	}
	return v
}

// signedVec draws small signed integer values and replaces zeros with
// -0.0 half the time. The kernels' zero-skip keys on the bit pattern
// (spmv.SkipZero): only +0.0 — the additive identity every accumulator
// starts from — may be skipped, while -0.0 must be traversed. Adding
// -0.0 into a +0.0-initialised sum is itself bit-transparent, so the
// results below stay bit-identical across engines and schedules; the
// test pins that no kernel re-grows a `x == 0` comparison that would
// diverge from the shared predicate.
func signedVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(int64(rng.Uint64n(9)) - 4)
		if v[i] == 0 && rng.Uint64n(2) == 0 {
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

func diffGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"paper": graph.PaperExample()}
	cfg := gen.DefaultRMAT(9, 8, 42)
	cfg.Reciprocity = 0.6
	rm, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs["rmat"] = rm
	web, err := gen.Web(gen.DefaultWeb(3000, 11))
	if err != nil {
		t.Fatal(err)
	}
	gs["web"] = web
	return gs
}

// stepOldSpace runs one Step of an iHTL engine with old-ID-space
// vectors, permuting in and out.
func stepOldSpace(ih *IHTL, e spmv.Stepper, srcOld []float64) []float64 {
	n := ih.NumV
	srcNew := make([]float64, n)
	dstNew := make([]float64, n)
	ih.PermuteToNew(srcOld, srcNew)
	e.Step(srcNew, dstNew)
	dstOld := make([]float64, n)
	ih.PermuteToOld(dstNew, dstOld)
	return dstOld
}

// TestStepDifferentialFusedPhasedPull checks that the fused pipeline,
// its AtomicFlipped ablation, the same engines stepped phase by phase
// (phasedStep), and the spmv.Pull baseline produce bit-identical dst
// vectors across graphs and worker counts.
func TestStepDifferentialFusedPhasedPull(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		src := integerVec(1234, g.NumV)
		var want []float64 // pull result of the first pool; all must match it
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
				for _, opt := range []EngineOptions{{}, {AtomicFlipped: true}} {
					e, err := NewEngineOpts(ih, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, phased := range []bool{false, true} {
						var st spmv.Stepper = e
						if phased {
							st = phasedEngine{e}
						}
						got := stepOldSpace(ih, st, src)
						label := fmt.Sprintf("phased=%v atomic=%v", phased, opt.AtomicFlipped)
						requireBitIdentical(t, label, want, got)
						// A second Step re-using the engine must be just as
						// exact: it proves buffers, dirty ranges, and gates
						// were left clean by the first iteration.
						got2 := stepOldSpace(ih, st, src)
						requireBitIdentical(t, label+" (second step)", want, got2)
					}
				}
			})
		}
	}
}

// TestStepDifferentialSignedZero runs the differential with sources
// containing negative values and -0.0: every engine — the iHTL
// pipelines and all four spmv baselines — must agree bit-for-bit, so
// the zero-skip semantics are uniform (satellite of the SkipZero
// unification; see signedVec).
func TestStepDifferentialSignedZero(t *testing.T) {
	for name, g := range diffGraphs(t) {
		src := signedVec(77, g.NumV)
		pool := sched.NewPool(3)
		defer pool.Close()

		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		got := make([]float64, g.NumV)
		for _, dir := range []spmv.Direction{
			spmv.PushAtomic, spmv.PushBuffered, spmv.PushPartitioned,
		} {
			e, err := spmv.NewEngine(g, pool, dir, spmv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e.Step(src, got)
			requireBitIdentical(t, fmt.Sprintf("%s/%v", name, dir), want, got)
		}

		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []EngineOptions{{}, {AtomicFlipped: true}} {
			e, err := NewEngineOpts(ih, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/atomic=%v", name, opt.AtomicFlipped)
			requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
		}
	}
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: vertex %d: got %v want %v (bits %x vs %x)",
				label, v, got[v], want[v],
				math.Float64bits(got[v]), math.Float64bits(want[v]))
		}
	}
}

// FuzzStepDifferential drives the same differential property from
// fuzzed R-MAT seeds and scales.
func FuzzStepDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(6))
	f.Add(uint64(99), uint8(8))
	f.Add(uint64(7), uint8(5))
	pool := sched.NewPool(3)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, seed uint64, scale uint8) {
		if scale < 4 || scale > 9 {
			t.Skip()
		}
		g, err := gen.RMAT(gen.DefaultRMAT(int(scale), 6, seed|1))
		if err != nil {
			t.Skip()
		}
		src := integerVec(seed, g.NumV)
		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		ih, err := Build(g, Params{HubsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := NewEngine(ih, pool)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "fused", want, stepOldSpace(ih, fused, src))
		atomic, err := NewEngineOpts(ih, pool, EngineOptions{AtomicFlipped: true})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "atomic", want, stepOldSpace(ih, atomic, src))
		degree, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: SparsePullDegree})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pull-degree", want, stepOldSpace(ih, degree, src))
		pull, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: SparsePull})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pull", want, stepOldSpace(ih, pull, src))

		// Second pass with signed values and -0.0 entries: the skip
		// predicates must keep every engine bit-identical (see signedVec).
		srcSigned := signedVec(seed^0x5a5a, g.NumV)
		pe.Step(srcSigned, want)
		requireBitIdentical(t, "fused signed", want, stepOldSpace(ih, fused, srcSigned))
		requireBitIdentical(t, "atomic signed", want, stepOldSpace(ih, atomic, srcSigned))
		requireBitIdentical(t, "pull-degree signed", want, stepOldSpace(ih, degree, srcSigned))
		requireBitIdentical(t, "pull signed", want, stepOldSpace(ih, pull, srcSigned))
	})
}

// TestFusedStepAllocationFree pins the fused pipeline's zero-allocation
// steady state: after construction, Steps allocate nothing — no
// per-dispatch scheduler, no closures, no WaitGroups.
func TestFusedStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("fused Step allocates %.1f objects per run, want 0", allocs)
	}
}
