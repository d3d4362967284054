package core

// Batched (multi-vector) sharded execution: StepBatch over a sharded
// engine runs every shard's K-wide fused pipeline plus a K-wide
// exchange under one dispatch, mirroring engine_batch.go. The exchange
// reuses the scalar xState's offsets, cursors and row array; only the
// binned contributions are K-wide (xBinVals, slot p's lanes at
// [p*k, (p+1)*k)).

import (
	"context"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// ensureBatch readies every shard's batch state and the K-wide
// exchange values for width k, allocating only on a width change.
func (se *ShardedEngine) ensureBatch(k int) {
	for _, sub := range se.engs {
		sub.ensureBatch(k)
	}
	if se.batchK == k {
		return
	}
	se.batchK = k
	if se.x != nil {
		se.xBinVals = make([]float64, len(se.x.binRows)*k)
	}
}

// StepBatch computes dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] in
// sharded-global ID space, with StepBatch's contract (vertex-major
// interleaved vectors of length NumV*k; k == 1 delegates to Step).
//
//ihtl:noalloc
func (se *ShardedEngine) StepBatch(src, dst []float64, k int) {
	se.StepBatchEpi(src, dst, k, nil)
}

// StepBatchEpi is StepBatch plus the fused element-wise epilogue, with
// Engine.StepBatchEpi's contract.
//
//ihtl:noalloc
func (se *ShardedEngine) StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) {
	if herr := se.stepBatchEpi(src, dst, k, epi); herr != nil {
		se.panicHealth(herr)
	}
}

//ihtl:noalloc
func (se *ShardedEngine) stepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) *spmv.NumericError {
	if k == 1 {
		return se.stepEpi(src, dst, epi)
	}
	if k < 1 {
		panic("core: batch width < 1")
	}
	if len(src) != se.sg.NumV*k || len(dst) != se.sg.NumV*k {
		panic("core: batch vector length mismatch")
	}
	se.ensureBatch(k)
	se.armHealth(k)
	se.curEpi = epi
	se.stepFusedBatch(src, dst)
	se.curEpi = nil
	se.breakdown.Steps++
	return se.collectHealth()
}

// StepBatchCtx is StepBatch with the StepCtx contract.
func (se *ShardedEngine) StepBatchCtx(ctx context.Context, src, dst []float64, k int) error {
	return se.StepBatchEpiCtx(ctx, src, dst, k, nil)
}

// StepBatchEpiCtx is StepBatchEpi with the StepCtx contract.
func (se *ShardedEngine) StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	end, err := se.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := se.stepBatchEpi(src, dst, k, epi)
	if err := end(); err != nil {
		se.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// stepFusedBatch mirrors stepFused for a K-wide sharded dispatch.
//
//ihtl:noalloc
func (se *ShardedEngine) stepFusedBatch(src, dst []float64) {
	start := time.Now()
	k := se.batchK
	for s, sub := range se.engs {
		lo, hi := se.sg.Bounds[s]*k, se.sg.Bounds[s+1]*k
		sub.stageFusedBatch(sub.batch, src[lo:hi], dst[lo:hi])
	}
	if se.x != nil {
		se.binSched.Reset(se.x.numChunks)
		se.drainSched.Reset(se.x.numBuckets)
	}
	se.curSrc, se.curDst = src, dst
	se.pool.Run(se.batchJob)
	se.curSrc, se.curDst = nil, nil
	for _, sub := range se.engs {
		sub.unstageFused()
	}
	se.harvest()
	se.breakdown.Wall += time.Since(start)
}

// batchWorker is fusedWorker with K-wide lanes.
//
//ihtl:noalloc
func (se *ShardedEngine) batchWorker(w int) {
	sLo, sHi := se.groups.Shards(w)
	for s := sLo; s < sHi; s++ {
		sub := se.engs[s]
		sub.batch.fusedJob(se.groups.Local(w, s))
	}
	if se.x == nil {
		se.runEpilogue(w)
		return
	}
	src, dst := se.curSrc, se.curDst
	clk := &se.xClocks[w]
	t0 := time.Now()
	se.binWorkerBatch(w, src)
	t1 := time.Now()
	clk.bin += t1.Sub(t0)
	if !se.xBarrier.WaitAbort(se.pool) {
		return
	}
	t2 := time.Now()
	se.drainWorkerBatch(w, dst)
	clk.drain += time.Since(t2)
	se.runEpilogue(w)
}

//ihtl:noalloc
func (se *ShardedEngine) binWorkerBatch(w int, src []float64) {
	for !se.pool.Aborted() {
		lo, hi, ok := se.binSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteShardPush)
		for c := lo; c < hi; c++ {
			se.xBinChunkBatch(c, src)
		}
	}
}

// xBinChunkBatch is xBinChunk with K-wide lanes: one slot per cross
// edge as in the scalar path (the shared cursors advance by one), K
// contiguous values per slot. All-(+0.0) lane groups are skipped with
// the scalar path's bit-transparency argument applied lane-wise.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xBinChunkBatch(c int, src []float64) {
	x := se.x
	k := se.batchK
	C := x.numChunks
	binCur, binOff := x.binCur, x.binOff
	for b := 0; b < x.numBuckets; b++ {
		unchecked.SetAt(binCur, b*C+c, unchecked.At(binOff, b*C+c))
	}
	shift := x.shift
	xIndex, xRows := x.xIndex, x.xRows
	binRows, binVals := x.binRows, se.xBinVals
	sLo, sHi := unchecked.At(x.chunkBounds, c), unchecked.At(x.chunkBounds, c+1)
	for s := sLo; s < sHi; s++ {
		xs := unchecked.SliceAt(src, s*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		end := unchecked.At(xIndex, s+1)
		for i := unchecked.At(xIndex, s); i < end; i++ {
			row := unchecked.At(xRows, int(i))
			seg := int(row>>shift)*C + c
			p := unchecked.At(binCur, seg)
			unchecked.SetAt(binRows, int(p), row)
			copy(unchecked.SliceAt(binVals, int(p)*k, k), xs)
			unchecked.SetAt(binCur, seg, p+1)
		}
	}
}

//ihtl:noalloc
func (se *ShardedEngine) drainWorkerBatch(w int, dst []float64) {
	for !se.pool.Aborted() {
		lo, hi, ok := se.drainSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteShardExchange)
		for b := lo; b < hi; b++ {
			se.xDrainBucketBatch(b, dst)
		}
	}
}

// xDrainBucketBatch is xDrainBucket with K-wide lanes; same no-zeroing
// add-onto-local discipline.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xDrainBucketBatch(b int, dst []float64) {
	x := se.x
	k := se.batchK
	C := x.numChunks
	binOff, binCur := x.binOff, x.binCur
	binRows, binVals := x.binRows, se.xBinVals
	for c := 0; c < C; c++ {
		seg := b*C + c
		end := unchecked.At(binCur, seg)
		for p := unchecked.At(binOff, seg); p < end; p++ {
			row := int(unchecked.At(binRows, int(p)))
			vals := unchecked.SliceAt(binVals, int(p)*k, k)
			out := unchecked.SliceAt(dst, row*k, k)
			for j := 0; j < k; j++ {
				unchecked.AddAt(out, j, unchecked.At(vals, j))
			}
		}
	}
}
