package core

import (
	"math"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

// detEngine is the stepping surface the determinism properties cover:
// Engine and phasedEngine both provide it.
type detEngine interface {
	Step(src, dst []float64)
	StepBatch(src, dst []float64, k int)
}

// detVariants are the engine shapes every default-options engine
// promises bit-for-bit reproducibility for: the fused pipeline over a
// resident graph and over the same graph opened from a mapped engine
// file, the same engine stepped phase by phase
// (phasedStep; its StepBatch is the engine's own). None sets
// StaticFlipped: the fixed flipped partition is the
// only schedule. build returns the engine and the permutation from its
// ID space to original IDs.
var detVariants = []struct {
	name  string
	build func(t *testing.T, g *graph.Graph, p Params) (detEngine, func(in, out []float64))
}{
	{"fused-flat", func(t *testing.T, g *graph.Graph, p Params) (detEngine, func(in, out []float64)) {
		return buildDetEngine(t, g, p, EngineOptions{})
	}},
	{"fused-mapped", func(t *testing.T, g *graph.Graph, p Params) (detEngine, func(in, out []float64)) {
		ih, err := Build(g, p)
		if err != nil {
			t.Fatal(err)
		}
		mapped := openMapped(t, ih)
		e, err := NewEngine(mapped, testPool)
		if err != nil {
			t.Fatal(err)
		}
		return e, mapped.PermuteToOld
	}},
	{"phased", func(t *testing.T, g *graph.Graph, p Params) (detEngine, func(in, out []float64)) {
		e, toOld := buildDetEngine(t, g, p, EngineOptions{})
		return phasedEngine{e.(*Engine)}, toOld
	}},
}

func buildDetEngine(t *testing.T, g *graph.Graph, p Params, opt EngineOptions) (detEngine, func(in, out []float64)) {
	t.Helper()
	ih, err := Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOpts(ih, testPool, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e, ih.PermuteToOld
}

// TestStaticFlippedBitReproducible pins the determinism contract the
// serving layer's replay guarantees are built on: two fresh
// default-options engines over the same topology produce bit-identical
// vectors after a chain of Steps — and of K-wide StepBatches — and the
// scalar result still matches the reference SpMV to rounding. Chaining
// compounds any reassociation drift, so a single step passing by luck
// cannot hide it.
func TestStaticFlippedBitReproducible(t *testing.T) {
	const k = 3
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{HubsPerBlock: 64}
	n := g.NumV
	src := randomVec(7, n)
	bsrc := randomVec(8, n*k)
	const steps = 6
	// chain runs steps iterations of step over width-w vectors, keeping
	// magnitudes bounded so late steps still exercise low-order
	// mantissa bits.
	chain := func(step func(x, y []float64), x0 []float64) []float64 {
		x := append([]float64(nil), x0...)
		y := make([]float64, len(x0))
		for s := 0; s < steps; s++ {
			step(x, y)
			for i := range y {
				y[i] = y[i]/float64(len(g.In(0))+8) + x0[i]
			}
			x, y = y, x
		}
		return x
	}
	for _, variant := range detVariants {
		t.Run(variant.name, func(t *testing.T) {
			runs := make([][2][]float64, 2)
			for r := range runs {
				e, _ := variant.build(t, g, p)
				runs[r][0] = chain(e.Step, src)
				runs[r][1] = chain(func(x, y []float64) { e.StepBatch(x, y, k) }, bsrc)
			}
			for i, label := range []string{"Step", "StepBatch"} {
				a, b := runs[0][i], runs[1][i]
				for v := range a {
					if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
						t.Fatalf("%s: run-to-run drift at element %d: %v vs %v", label, v, a[v], b[v])
					}
				}
			}

			e, toOld := variant.build(t, g, p)
			dst := make([]float64, n)
			e.Step(src, dst)
			srcOld := make([]float64, n)
			got := make([]float64, n)
			toOld(src, srcOld)
			toOld(dst, got)
			want := referenceStep(g, srcOld)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9*(math.Abs(want[v])+1) {
					t.Fatalf("vertex %d: %v, reference %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestStaticFlippedBatchLanesMatchScalar pins the property coalesced
// serving leans on: lane j of a K-wide StepBatch on a default-options
// engine equals a scalar Step of the same input bit-for-bit, because
// the fixed task → worker assignment makes every partial sum's operand
// set — and its order — identical across K.
func TestStaticFlippedBatchLanesMatchScalar(t *testing.T) {
	const k = 3
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 33))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{HubsPerBlock: 64}.ForBatch(k)
	for _, variant := range detVariants {
		t.Run(variant.name, func(t *testing.T) {
			e, _ := variant.build(t, g, p)
			n := g.NumV
			lanes := make([][]float64, k)
			bsrc := make([]float64, n*k)
			bdst := make([]float64, n*k)
			for j := 0; j < k; j++ {
				lanes[j] = randomVec(uint64(100+j), n)
				for v := 0; v < n; v++ {
					bsrc[v*k+j] = lanes[j][v]
				}
			}
			e.StepBatch(bsrc, bdst, k)
			dst := make([]float64, n)
			for j := 0; j < k; j++ {
				e.Step(lanes[j], dst)
				for v := 0; v < n; v++ {
					if math.Float64bits(bdst[v*k+j]) != math.Float64bits(dst[v]) {
						t.Fatalf("lane %d vertex %d: batch %v, scalar %v", j, v, bdst[v*k+j], dst[v])
					}
				}
			}
		})
	}
}

// TestStaticFlippedRejectsAtomic: the CAS ablation's accumulation order
// is schedule-dependent no matter how tasks are assigned, so a caller
// asking for reproducibility (StaticFlipped) together with
// AtomicFlipped must be refused at construction rather than silently
// handed a nondeterministic engine.
func TestStaticFlippedRejectsAtomic(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineOpts(ih, testPool, EngineOptions{StaticFlipped: true, AtomicFlipped: true}); err == nil {
		t.Fatal("StaticFlipped+AtomicFlipped accepted")
	}
}
