package core

import (
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// The flipped-push kernels: one task's worth of src[s] -> hub
// scatter, called by every worker body so the inner loop exists
// exactly once per shape. Resident and mapped graphs both run them.
// These are the Algorithm 3 lines 1-4 inner loops; they are
// //ihtl:nobce — the ihtlvet -bce gate pins them free of per-edge
// bounds checks, which is why every access goes through the unchecked
// accessors (indices are graph data no BCE analysis can prove in
// range; see internal/unchecked for the safety argument).

// pushTaskFlat pushes flat task bt of block fb into a worker-owned
// hub buffer.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlat(bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		x := unchecked.At(src, s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			unchecked.AddAt(buf, int(unchecked.At(dsts, int(i))), x)
		}
	}
}

// pushTaskFlatAtomic is pushTaskFlat for the AtomicFlipped ablation:
// CAS straight into the shared dst.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlatAtomic(bt *blockTask, fb *FlippedBlock, src, dst []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		x := unchecked.At(src, s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			spmv.AtomicAddFloat64(unchecked.PtrAt(dst, int(unchecked.At(dsts, int(i)))), x)
		}
	}
}

// pushTaskFlatBatch is pushTaskFlat with K-wide lanes.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlatBatch(k int, bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		xs := unchecked.SliceAt(src, s*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			db := int(unchecked.At(dsts, int(i))) * k
			for j, x := range xs {
				unchecked.AddAt(buf, db+j, x)
			}
		}
	}
}
