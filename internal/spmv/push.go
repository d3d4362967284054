package spmv

import (
	"math"
	"sync/atomic"
	"unsafe"

	"ihtl/internal/faultinject"
)

// SkipZero reports whether x is positive zero — the ONLY value the
// push kernels' zero fast path may skip. Every accumulator these
// kernels feed (per-thread buffers, cleared dst, pull partial sums)
// starts at +0.0, for which +0.0 is a bit-transparent additive
// identity, so skipping it cannot change any result. Skipping on
// x == 0 would also skip negative zero, silently dropping -0.0
// contributions the pull engines traverse; instead -0.0 is pushed like
// any other value. All push engines — fused, atomic, buffered,
// partitioned, and their batched forms — share this predicate so their
// zero semantics cannot drift apart.
//
//ihtl:noalloc
func SkipZero(x float64) bool { return math.Float64bits(x) == 0 }

// SkipZeroLanes is SkipZero over a batch row: a batched push kernel
// may skip a source's edges only when every lane carries the
// skippable +0.0.
//
//ihtl:noalloc
func SkipZeroLanes(xs []float64) bool {
	for _, x := range xs {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// AtomicAddFloat64 adds delta to *addr with a CAS loop — the price
// push traversal pays to protect concurrent updates to shared
// destinations (§1: "atomic instructions").
//
//ihtl:noalloc
func AtomicAddFloat64(addr *float64, delta float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, new) {
			return
		}
	}
}

// atomicWorker is Algorithm 2 with atomic writes: sources are
// processed in parallel; every destination update is a CAS.
//
//ihtl:noalloc
func (e *Engine) atomicWorker(w, lo, hi int) {
	g, src, dst := e.g, e.curSrc, e.curDst
	nbrs := g.OutNbrs
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pushBounds[part], e.pushBounds[part+1]
		for v := vlo; v < vhi; v++ {
			x := src[v]
			if SkipZero(x) {
				continue
			}
			for i := g.OutIndex[v]; i < g.OutIndex[v+1]; i++ {
				AtomicAddFloat64(&dst[nbrs[i]], x)
			}
		}
	}
}

// bufferedWorker is Algorithm 2 with X-Stream-style buffering
// (reference [29] of the paper): each worker accumulates into a
// private full-length buffer; a separate vertex-parallel merge
// (mergeWorker) reduces the buffers into dst. No atomics, but the
// buffers are as large as the vertex data itself — the overhead iHTL's
// flipped blocks shrink to a few hub pages.
//
//ihtl:noalloc
func (e *Engine) bufferedWorker(w, lo, hi int) {
	g, src := e.g, e.curSrc
	buf := e.threadBufs[w]
	nbrs := g.OutNbrs
	faultinject.Fire(faultinject.SitePushPart)
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pushBounds[part], e.pushBounds[part+1]
		for v := vlo; v < vhi; v++ {
			x := src[v]
			if SkipZero(x) {
				continue
			}
			for i := g.OutIndex[v]; i < g.OutIndex[v+1]; i++ {
				buf[nbrs[i]] += x
			}
		}
	}
}

// clearBufsWorker resets one worker's scalar accumulation buffer.
// Buffers are dirtied selectively and cleared fully; for the graphs
// used here clearing is a small sequential sweep per worker.
//
//ihtl:noalloc
func (e *Engine) clearBufsWorker(w int) {
	clear(e.threadBufs[w])
}

// mergeWorker reduces every worker's buffer into dst over a static
// vertex range.
//
//ihtl:noalloc
func (e *Engine) mergeWorker(w, lo, hi int) {
	bufs, dst := e.threadBufs, e.curDst
	for v := lo; v < hi; v++ {
		sum := 0.0
		for t := range bufs {
			sum += bufs[t][v]
		}
		dst[v] = sum
	}
}
