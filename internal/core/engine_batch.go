package core

import (
	"context"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/spmv"
)

// Batched (multi-vector) execution of Algorithm 3: StepBatch runs K
// interleaved SpMVs through one traversal of the iHTL topology.
// Vectors are vertex-major interleaved (lane j of vertex v at
// x[v*k+j]), so every flipped edge drives K contiguous buffer lanes
// and every sparse edge K contiguous partial sums — the edge/index
// stream that bounds the scalar kernels is amortised K ways.
//
// The batched pipeline reuses the engine's flipped partition,
// schedulers, countdown gates, barriers and clocks; only the hub
// buffers and dirty ranges are K-wide, held in a batchState allocated
// on first use of a width (and reused while the width is stable,
// keeping steady-state StepBatch allocation-free). It is always the
// buffered pipeline: the AtomicFlipped ablation covers scalar steps
// only. To keep a K-wide per-block buffer L2-resident the way §3.4
// sizes the scalar one, build the IHTL with Params.ForBatch(k), which
// shrinks the effective B to L2/(8·K).

// batchState is the K-wide execution state of one batch width.
type batchState struct {
	k int
	// bufs[w] is worker w's K-wide hub accumulation buffer
	// (NumHubs*k lanes, vertex-major interleaved).
	bufs [][]float64
	// dirty tracks per (worker, block) the HUB range the worker
	// touched (lane-agnostic: lanes of one hub live or die together).
	dirty []dirtyRange
	// fusedJob is the prebuilt worker body, so a fused StepBatch
	// allocates nothing.
	fusedJob func(w int)
}

// ensureBatch returns the engine's batch state for width k, building
// it on first use or on a width change.
func (e *Engine) ensureBatch(k int) *batchState {
	if e.batch != nil && e.batch.k == k {
		return e.batch
	}
	b := &batchState{k: k}
	w := len(e.clocks)
	b.bufs = make([][]float64, w)
	for i := range b.bufs {
		b.bufs[i] = make([]float64, e.ih.NumHubs*k)
	}
	b.dirty = make([]dirtyRange, w*len(e.ih.Blocks))
	b.fusedJob = func(worker int) { e.fusedWorkerBufferedBatch(b, worker) }
	e.batch = b
	return b
}

// StepBatch computes dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] for every
// vertex v and lane j < k, in iHTL ID space. src and dst must have
// length NumV*k, be vertex-major interleaved, and must not alias.
// k == 1 delegates to the scalar Step. k > 1 runs the buffered batch
// pipeline even on an AtomicFlipped engine, whose CAS ablation is
// scalar-only.
//
//ihtl:noalloc
func (e *Engine) StepBatch(src, dst []float64, k int) {
	e.StepBatchEpi(src, dst, k, nil)
}

// StepBatchEpi is StepBatch followed by an element-wise epilogue with
// the same contract as StepEpi's: every worker runs epi(w, lo, hi)
// over its static share [lo, hi) of the VERTEX range [0, NumV) — lane
// j of vertex v is at index v*k+j — once all of dst is complete. The
// epilogue runs inside the step's dispatch, so a whole K-source
// analytic iteration costs a single pool round-trip.
// epi may be nil.
//
//ihtl:noalloc
func (e *Engine) StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) {
	if herr := e.stepBatchEpi(src, dst, k, epi); herr != nil {
		e.panicHealth(herr)
	}
}

// stepBatchEpi is the shared body of StepBatchEpi and StepBatchEpiCtx,
// returning the numeric-health verdict like stepEpi.
//
//ihtl:noalloc
func (e *Engine) stepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) *spmv.NumericError {
	if k == 1 {
		return e.stepEpi(src, dst, epi)
	}
	if k < 1 {
		panic("core: batch width < 1")
	}
	ih := e.ih
	if len(src) != ih.NumV*k || len(dst) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	b := e.ensureBatch(k)
	e.armHealth(k)
	e.curEpi = epi
	e.stepFusedBatch(b, src, dst)
	e.curEpi = nil
	e.breakdown.Steps++
	return e.collectHealth()
}

// StepBatchCtx is StepBatch with the StepCtx contract (cancellation,
// panic isolation, health verdicts, post-failure state recovery).
func (e *Engine) StepBatchCtx(ctx context.Context, src, dst []float64, k int) error {
	return e.StepBatchEpiCtx(ctx, src, dst, k, nil)
}

// StepBatchEpiCtx is StepBatchEpi with the StepCtx contract.
func (e *Engine) StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	end, err := e.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := e.stepBatchEpi(src, dst, k, epi)
	if err := end(); err != nil {
		e.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// recoverState clears the K-wide buffers and dirty ranges after an
// aborted batched step; see Engine.recoverState.
func (b *batchState) recoverState() {
	for w := range b.bufs {
		clear(b.bufs[w])
	}
	for i := range b.dirty {
		b.dirty[i] = dirtyRange{}
	}
}

// stepFusedBatch mirrors stepFused for a K-wide dispatch: the same
// scheduler and countdown arming, because the schedules partition
// tasks, not lanes.
//
//ihtl:noalloc
func (e *Engine) stepFusedBatch(b *batchState, src, dst []float64) {
	start := time.Now()
	e.resetSparseScheds()
	// Armed even on an AtomicFlipped engine: the batch pipeline is
	// always the buffered one.
	e.blockGate.Reset(e.tasksPerBlock)
	e.curSrc, e.curDst = src, dst
	e.pool.Run(b.fusedJob)
	e.curSrc, e.curDst = nil, nil
	e.harvestClocks()
	e.breakdown.Wall += time.Since(start)
}

// fusedWorkerBufferedBatch is fusedWorkerBuffered with K-wide lanes:
// same flipped share, dirty-range widening, countdown-gated merges and
// barrier-free flow into the sparse pull — only the accumulation is
// over buf[d*k : d*k+k] instead of buf[d].
//
//ihtl:noalloc
func (e *Engine) fusedWorkerBufferedBatch(b *batchState, w int) {
	ih := e.ih
	k := b.k
	src, dst := e.curSrc, e.curDst
	t0 := time.Now()
	if w == 0 {
		for _, blk := range e.emptyBlocks {
			fb := &ih.Blocks[blk]
			clear(dst[fb.HubLo*k : fb.HubHi*k])
		}
	}
	nb := len(ih.Blocks)
	buf := b.bufs[w]
	var mergeTime time.Duration
	for ti, end := e.flipBounds[w], e.flipBounds[w+1]; ti < end && !e.pool.Aborted(); ti++ {
		faultinject.Fire(faultinject.SiteFlippedTask)
		bt := &e.blockTasks[ti]
		pushTaskFlatBatch(k, bt, &ih.Blocks[bt.block], src, buf)
		if bt.dHi > bt.dLo {
			dr := &b.dirty[w*nb+bt.block]
			if dr.hi <= dr.lo {
				dr.lo, dr.hi = bt.dLo, bt.dHi
			} else {
				if bt.dLo < dr.lo {
					dr.lo = bt.dLo
				}
				if bt.dHi > dr.hi {
					dr.hi = bt.dHi
				}
			}
		}
		if e.blockGate.Done(bt.block) {
			faultinject.Fire(faultinject.SiteMergeBlock)
			tm := time.Now()
			e.mergeBlockBatch(b, bt.block, dst)
			mergeTime += time.Since(tm)
		}
	}
	t1 := time.Now()
	clk := &e.clocks[w]
	clk.flipped += t1.Sub(t0) - mergeTime
	clk.merge += mergeTime
	e.sparseWorkerBatch(b, w, src, dst)
	e.runEpilogue(w)
}

// mergeBlockBatch folds every worker's dirty hub range of block blk
// into dst, K lanes per hub, and resets the consumed buffer lanes.
// Same ownership argument as mergeBlock: the caller holds the block's
// completion, and hub h's lanes [h*k, h*k+k) are dirty or clean as a
// unit because the dirty ranges track hubs, not lanes.
//
//ihtl:noalloc
func (e *Engine) mergeBlockBatch(b *batchState, blk int, dst []float64) {
	fb := &e.ih.Blocks[blk]
	k := b.k
	clear(dst[fb.HubLo*k : fb.HubHi*k])
	nb := len(e.ih.Blocks)
	for t := range b.bufs {
		dr := &b.dirty[t*nb+blk]
		if dr.hi <= dr.lo {
			continue
		}
		buf := b.bufs[t]
		for i := dr.lo * k; i < dr.hi*k; i++ {
			dst[i] += buf[i]
			buf[i] = 0
		}
		dr.lo, dr.hi = 0, 0
	}
}

// PermuteToNewBatch scatters K interleaved vectors indexed by original
// IDs into iHTL ID order: out[NewID[v]*k+j] = in[v*k+j].
func (ih *IHTL) PermuteToNewBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[int(nv)*k:int(nv)*k+k], in[v*k:v*k+k])
	}
}

// PermuteToOldBatch is the inverse of PermuteToNewBatch:
// out[v*k+j] = in[NewID[v]*k+j].
func (ih *IHTL) PermuteToOldBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[v*k:v*k+k], in[int(nv)*k:int(nv)*k+k])
	}
}
