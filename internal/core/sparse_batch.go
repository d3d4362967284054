package core

// K-wide (StepBatch) variants of the sparse kernels in sparse.go. The
// schedule state is shared with the scalar path — same uniform parts,
// same heavy/light parts — only the partial sums are K lanes wide, in
// dst's contiguous lane rows. The determinism argument of sparse.go
// applies per lane unchanged.

import (
	"time"

	"ihtl/internal/faultinject"
)

// sparseWorkerBatch is sparseWorker with K-wide lanes: it runs worker
// w's share of the configured sparse kernel and records the same
// sparse busy time.
//
//ihtl:noalloc
func (e *Engine) sparseWorkerBatch(b *batchState, w int, src, dst []float64) {
	t0 := time.Now()
	if e.sparseKernel == SparsePullDegree {
		e.sparseHeavyWorkerBatch(b, w, src, dst)
		e.sparseLightWorkerBatch(b, w, src, dst)
	} else {
		e.sparsePullWorkerBatch(b, w, src, dst)
	}
	e.clocks[w].sparse += time.Since(t0)
}

// sparsePullWorkerBatch drains the baseline K-wide pull with partial
// sums accumulated in place in dst's contiguous lane rows, which each
// destination owns exclusively.
//
//ihtl:noalloc
func (e *Engine) sparsePullWorkerBatch(b *batchState, w int, src, dst []float64) {
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
			e.sparsePullRangeBatch(b.k, e.sparseBounds[p], e.sparseBounds[p+1], src, dst)
		}
	}
}

// sparsePullRangeBatch pulls rows [lo, hi) K lanes wide: the shared
// inner loop of the uniform and degree-aware batched pull schedules.
//
//ihtl:noalloc
func (e *Engine) sparsePullRangeBatch(k, lo, hi int, src, dst []float64) {
	sp := &e.ih.Sparse
	for i := lo; i < hi; i++ {
		db := (sp.DestLo + i) * k
		out := dst[db : db+k : db+k]
		for j := range out {
			out[j] = 0
		}
		for jj := sp.Index[i]; jj < sp.Index[i+1]; jj++ {
			sb := int(sp.Srcs[jj]) * k
			xs := src[sb : sb+k : sb+k]
			for j, x := range xs {
				out[j] += x
			}
		}
	}
}

// sparseHeavyWorkerBatch claims heavy-list parts like its scalar
// counterpart; rows stay whole per worker.
//
//ihtl:noalloc
func (e *Engine) sparseHeavyWorkerBatch(b *batchState, w int, src, dst []float64) {
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
			e.sparseHeavyPartBatch(b.k, p, src, dst)
		}
	}
}

//ihtl:noalloc
func (e *Engine) sparseHeavyPartBatch(k, p int, src, dst []float64) {
	sp := &e.ih.Sparse
	for _, row := range sp.Heavy[e.heavyBounds[p]:e.heavyBounds[p+1]] {
		i := int(row)
		db := (sp.DestLo + i) * k
		out := dst[db : db+k : db+k]
		for j := range out {
			out[j] = 0
		}
		for jj := sp.Index[i]; jj < sp.Index[i+1]; jj++ {
			sb := int(sp.Srcs[jj]) * k
			xs := src[sb : sb+k : sb+k]
			for j, x := range xs {
				out[j] += x
			}
		}
	}
}

// sparseLightWorkerBatch pulls the short rows in coarse chunks.
//
//ihtl:noalloc
func (e *Engine) sparseLightWorkerBatch(b *batchState, w int, src, dst []float64) {
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
			e.sparseLightPartBatch(b.k, p, src, dst)
		}
	}
}

//ihtl:noalloc
func (e *Engine) sparseLightPartBatch(k, p int, src, dst []float64) {
	sp := &e.ih.Sparse
	heavy := sp.HeavyDeg
	for i := e.lightBounds[p]; i < e.lightBounds[p+1]; i++ {
		if sp.Index[i+1]-sp.Index[i] >= heavy {
			continue
		}
		db := (sp.DestLo + i) * k
		out := dst[db : db+k : db+k]
		for j := range out {
			out[j] = 0
		}
		for jj := sp.Index[i]; jj < sp.Index[i+1]; jj++ {
			sb := int(sp.Srcs[jj]) * k
			xs := src[sb : sb+k : sb+k]
			for j, x := range xs {
				out[j] += x
			}
		}
	}
}
