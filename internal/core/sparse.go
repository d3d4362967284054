package core

// Sparse-block kernel variants. The baseline pull (Algorithm 3 l.8-10)
// walks Sparse.Srcs with random reads into src over uniform
// edge-balanced row ranges. SparsePullDegree, selectable per engine
// through EngineOptions.SparseKernel, keeps the pull loop but
// schedules rows by degree: the heavy rows (precomputed at build,
// SparseBlock.Heavy) are claimed over edge-balanced LIST parts so one
// mega-row cannot serialise behind a single worker, and the remaining
// short rows batch into coarse chunks that amortise claim overhead.
//
// Both kernels are bit-for-bit identical by construction: every row is
// summed whole by one worker, accumulating its sources in ascending
// order (Sparse.Srcs is sorted per row), so which worker claimed which
// row never changes a sum.

import (
	"fmt"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/unchecked"
)

// SparseKernel selects the sparse-block kernel of an Engine.
type SparseKernel int

const (
	// SparseAuto resolves to the repository default (the kernel that
	// measured fastest on the recorded benchmark machine).
	SparseAuto SparseKernel = iota
	// SparsePull is the paper's pull kernel over uniform edge-balanced
	// row ranges.
	SparsePull
	// SparsePullDegree is the pull kernel under degree-aware row
	// scheduling: heavy rows stolen over edge-balanced list parts,
	// short rows batched into coarse chunks.
	SparsePullDegree
)

func (k SparseKernel) String() string {
	switch k {
	case SparseAuto:
		return "auto"
	case SparsePull:
		return "pull"
	case SparsePullDegree:
		return "pull-degree"
	default:
		return fmt.Sprintf("SparseKernel(%d)", int(k))
	}
}

// ParseSparseKernel parses the -sparse flag values.
func ParseSparseKernel(s string) (SparseKernel, error) {
	switch s {
	case "auto", "":
		return SparseAuto, nil
	case "pull":
		return SparsePull, nil
	case "pull-degree":
		return SparsePullDegree, nil
	default:
		return 0, fmt.Errorf("core: unknown sparse kernel %q (want auto, pull or pull-degree)", s)
	}
}

// defaultSparseKernel is what SparseAuto resolves to: the winner of
// the sparse-kernel ablation in results/BENCH_step.json on the
// recorded machine (degree-aware pull cut the sparse phase ~12% vs
// uniform pull on the sk web graph and ~28% on the skewed twtrmpi
// social graph, tying elsewhere).
const defaultSparseKernel = SparsePullDegree

// initSparseKernel resolves the configured kernel and builds its
// schedule state. Called once from NewEngineOpts.
func (e *Engine) initSparseKernel(kernel SparseKernel) {
	if kernel == SparseAuto {
		kernel = defaultSparseKernel
	}
	e.sparseKernel = kernel
	ih := e.ih
	n := ih.NumV - ih.Sparse.DestLo
	if n <= 0 {
		return
	}
	w := e.pool.Workers()
	switch kernel {
	case SparsePullDegree:
		sp := &ih.Sparse
		ih.EnsureDegreeBuckets()
		if len(sp.Heavy) > 0 {
			e.heavyBounds = sched.EdgeBalancedPartsList(sp.Index, sp.Heavy, w*4)
		}
		// Coarse chunks over the light rows: heavy rows contribute no
		// edges to the balance (the claim loop skips them), so parts
		// carry equal LIGHT work.
		lidx := make([]int64, n+1)
		for i := 0; i < n; i++ {
			d := sp.Index[i+1] - sp.Index[i]
			if d >= sp.HeavyDeg {
				d = 0
			}
			lidx[i+1] = lidx[i] + d
		}
		e.lightBounds = sched.EdgeBalancedParts(lidx, w*2)
		e.auxSched = sched.NewStealScheduler(w)
	}
}

// resetSparseScheds re-arms the schedulers the configured sparse
// kernel claims from, at the top of each fused Step.
//
//ihtl:noalloc
func (e *Engine) resetSparseScheds() {
	switch e.sparseKernel {
	case SparsePullDegree:
		if n := len(e.lightBounds) - 1; n > 0 {
			e.sparseSched.Reset(n)
		}
		if n := len(e.heavyBounds) - 1; n > 0 {
			e.auxSched.Reset(n)
		}
	default:
		if n := len(e.sparseBounds) - 1; n > 0 {
			e.sparseSched.Reset(n)
		}
	}
}

// sparseWorker runs worker w's share of the configured sparse kernel
// inside the fused dispatch and records its sparse busy time.
//
//ihtl:noalloc
func (e *Engine) sparseWorker(w int, src, dst []float64) {
	t0 := time.Now()
	if e.sparseKernel == SparsePullDegree {
		e.sparseHeavyWorker(w, src, dst)
		e.sparseLightWorker(w, src, dst)
	} else {
		e.sparsePullWorker(w, src, dst)
	}
	e.clocks[w].sparse += time.Since(t0)
}

// sparsePullWorker drains the baseline pull via range stealing over
// the uniform edge-balanced partitions.
//
//ihtl:noalloc
func (e *Engine) sparsePullWorker(w int, src, dst []float64) {
	nparts := len(e.sparseBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparsePullRange(e.sparseBounds[p], e.sparseBounds[p+1], src, dst)
		}
	}
}

// sparsePullRange pulls rows [lo, hi) of the sparse block: the shared
// inner loop of the uniform and degree-aware pull schedules.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparsePullRange(lo, hi int, src, dst []float64) {
	sp := &e.ih.Sparse
	base := sp.DestLo
	idx, srcs := sp.Index, sp.Srcs
	for i := lo; i < hi; i++ {
		sum := 0.0
		end := unchecked.At(idx, i+1)
		for j := unchecked.At(idx, i); j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}

// sparseHeavyWorker pulls the heavy rows over edge-balanced parts of
// the build-time heavy list. Rows stay whole — splitting one across
// workers would regroup its partial sums and break bit-identity with
// pull — but the LIST is split finely enough (4x workers, balanced by
// edges) that the mega-rows spread across the pool.
//
//ihtl:noalloc
func (e *Engine) sparseHeavyWorker(w int, src, dst []float64) {
	nparts := len(e.heavyBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.auxSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseHeavyPart(p, src, dst)
		}
	}
}

//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseHeavyPart(p int, src, dst []float64) {
	sp := &e.ih.Sparse
	base := sp.DestLo
	heavy := sp.Heavy
	qLo, qHi := unchecked.At(e.heavyBounds, p), unchecked.At(e.heavyBounds, p+1)
	idx, srcs := sp.Index, sp.Srcs
	for q := qLo; q < qHi; q++ {
		i := int(unchecked.At(heavy, q))
		sum := 0.0
		end := unchecked.At(idx, i+1)
		for j := unchecked.At(idx, i); j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}

// sparseLightWorker pulls the short rows in coarse chunks, skipping
// the heavy rows the list schedule owns.
//
//ihtl:noalloc
func (e *Engine) sparseLightWorker(w int, src, dst []float64) {
	nparts := len(e.lightBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseLightPart(p, src, dst)
		}
	}
}

//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseLightPart(p int, src, dst []float64) {
	sp := &e.ih.Sparse
	heavy := sp.HeavyDeg
	base := sp.DestLo
	idx, srcs := sp.Index, sp.Srcs
	iLo, iHi := unchecked.At(e.lightBounds, p), unchecked.At(e.lightBounds, p+1)
	for i := iLo; i < iHi; i++ {
		lo, end := unchecked.At(idx, i), unchecked.At(idx, i+1)
		if end-lo >= heavy {
			continue
		}
		sum := 0.0
		for j := lo; j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}
