package core

import (
	"fmt"
	"sync"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// TestConcurrentEngineConstruction builds many engines over ONE shared
// IHTL opened from a mapped engine file — which does not store the
// degree buckets — from concurrent goroutines, mixing the options
// whose constructors run the lazy IHTL.EnsureDegreeBuckets derivation
// (SparsePullDegree, the default) with ones that do not, and then
// steps each. Under -race this pins the lazyMu guard: without it, two
// goroutines could both observe a zero HeavyDeg and race the
// derivation.
func TestConcurrentEngineConstruction(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	ih := openMapped(t, built)
	opts := []EngineOptions{
		{SparseKernel: SparsePull},
		{SparseKernel: SparsePullDegree},
		{AtomicFlipped: true, SparseKernel: SparsePullDegree},
		{},
	}
	src := integerVec(6, g.NumV)
	var want []float64

	const rounds = 4
	var wg sync.WaitGroup
	results := make([][]float64, len(opts)*rounds)
	errs := make([]error, len(opts)*rounds)
	for r := 0; r < rounds; r++ {
		for i, opt := range opts {
			wg.Add(1)
			go func(slot int, opt EngineOptions) {
				defer wg.Done()
				pool := sched.NewPool(2)
				defer pool.Close()
				e, err := NewEngineOpts(ih, pool, opt)
				if err != nil {
					errs[slot] = fmt.Errorf("NewEngineOpts(%+v): %w", opt, err)
					return
				}
				results[slot] = stepOldSpace(ih, e, src)
			}(r*len(opts)+i, opt)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatal(slot, err)
		}
	}
	for slot, got := range results {
		if want == nil {
			want = got
			continue
		}
		requireBitIdentical(t, fmt.Sprintf("concurrent engine %d", slot), want, got)
	}
}
