package spmv

// Propagation-blocked push (Balaji & Lucia): a whole-graph baseline,
// one of the paper's Fig. 7 comparison columns, kept for differential
// testing and for the bench ablations. One Step runs two phases over
// the push CSR:
//
//	bin:   sweep sources in ascending order (sequential src reads),
//	       appending (dst, x) pairs into per-(chunk, bucket) segments
//	       of a preallocated bin array — the destination space is cut
//	       into cache-sized row buckets;
//	drain: claim whole buckets, zero their row range and replay their
//	       segments in ascending chunk order — perfect destination
//	       locality, no atomics.
//
// Chunk-indexed segments with exact precomputed capacities make the
// result independent of scheduling: each destination's contributions
// accumulate in ascending source order, exactly the pull kernel's
// order, so Step is bit-for-bit identical to Pull on the same graph.

import (
	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
)

// DefaultBucketRows is the destination-bucket width of PropBlocked
// when Options.BucketRows is unset: the paper's L2 budget over 8-byte
// vertex data (1 MiB / 8), already a power of two.
const DefaultBucketRows = 1 << 17

// pbPlan is the preallocated propagation-blocking state of a
// PropBlocked engine.
type pbPlan struct {
	shift      uint
	numBuckets int
	numChunks  int
	// chunkBounds are numChunks+1 edge-balanced source boundaries over
	// the push CSR.
	chunkBounds []int
	// binOff/binCur/binRows/binVals: bucket-major exact-capacity
	// segments, running cursors, and the binned (dst, x) pairs; see
	// core/sparse.go for the layout and determinism argument.
	binOff  []int64
	binCur  []int64
	binRows []uint32
	binVals []float64
	// binValsK is the K-wide value array of StepBatch, grown on first
	// use of a width (slot p's lanes at [p*k, (p+1)*k)).
	binValsK []float64
	valsK    int
}

// buildPBPlan sizes the bin segments over g's push CSR.
func buildPBPlan(e *Engine, bucketRows, nparts int) *pbPlan {
	g := e.g
	p := &pbPlan{}
	if bucketRows < 256 {
		bucketRows = 256
	}
	for (1 << (p.shift + 1)) <= bucketRows {
		p.shift++
	}
	p.numBuckets = (g.NumV + (1 << p.shift) - 1) >> p.shift
	p.numChunks = nparts
	p.chunkBounds = sched.EdgeBalancedParts(g.OutIndex, nparts)
	C, B := p.numChunks, p.numBuckets
	p.binOff = make([]int64, B*C+1)
	for c := 0; c < C; c++ {
		for i := g.OutIndex[p.chunkBounds[c]]; i < g.OutIndex[p.chunkBounds[c+1]]; i++ {
			b := int(g.OutNbrs[i]) >> p.shift
			p.binOff[b*C+c+1]++
		}
	}
	for i := 0; i < B*C; i++ {
		p.binOff[i+1] += p.binOff[i]
	}
	p.binCur = make([]int64, B*C)
	p.binRows = make([]uint32, len(g.OutNbrs))
	p.binVals = make([]float64, len(g.OutNbrs))
	return p
}

// binWorker bins the claimed source chunks. Each chunk restarts its
// bucket cursors at the chunk's precomputed segment offsets, so it
// appends only into its own exact-capacity segments.
//
//ihtl:noalloc
func (e *Engine) binWorker(w, lo, hi int) {
	g, src, p := e.g, e.curSrc, e.pb
	C := p.numChunks
	faultinject.Fire(faultinject.SitePushPart)
	for c := lo; c < hi; c++ {
		for b := 0; b < p.numBuckets; b++ {
			p.binCur[b*C+c] = p.binOff[b*C+c]
		}
		for s := p.chunkBounds[c]; s < p.chunkBounds[c+1]; s++ {
			x := src[s]
			if SkipZero(x) {
				continue
			}
			for i := g.OutIndex[s]; i < g.OutIndex[s+1]; i++ {
				d := g.OutNbrs[i]
				seg := int(d>>p.shift)*C + c
				q := p.binCur[seg]
				p.binRows[q] = uint32(d)
				p.binVals[q] = x
				p.binCur[seg] = q + 1
			}
		}
	}
}

// drainWorker reduces the claimed buckets into dst.
//
//ihtl:noalloc
func (e *Engine) drainWorker(w, lo, hi int) {
	dst, p := e.curDst, e.pb
	n := e.g.NumV
	C := p.numChunks
	faultinject.Fire(faultinject.SitePullPart)
	for b := lo; b < hi; b++ {
		rowLo := b << p.shift
		rowHi := rowLo + (1 << p.shift)
		if rowHi > n {
			rowHi = n
		}
		clear(dst[rowLo:rowHi])
		for c := 0; c < C; c++ {
			seg := b*C + c
			for q := p.binOff[seg]; q < p.binCur[seg]; q++ {
				dst[p.binRows[q]] += p.binVals[q]
			}
		}
	}
}

// binBatchWorker is binWorker with K lanes copied per appended slot.
//
//ihtl:noalloc
func (e *Engine) binBatchWorker(w, lo, hi int) {
	g, src, k, p := e.g, e.curSrc, e.curK, e.pb
	C := p.numChunks
	faultinject.Fire(faultinject.SitePushPart)
	for c := lo; c < hi; c++ {
		for b := 0; b < p.numBuckets; b++ {
			p.binCur[b*C+c] = p.binOff[b*C+c]
		}
		for s := p.chunkBounds[c]; s < p.chunkBounds[c+1]; s++ {
			sb := s * k
			xs := src[sb : sb+k : sb+k]
			if SkipZeroLanes(xs) {
				continue
			}
			for i := g.OutIndex[s]; i < g.OutIndex[s+1]; i++ {
				d := g.OutNbrs[i]
				seg := int(d>>p.shift)*C + c
				q := p.binCur[seg]
				p.binRows[q] = uint32(d)
				copy(p.binValsK[q*int64(k):(q+1)*int64(k)], xs)
				p.binCur[seg] = q + 1
			}
		}
	}
}

// drainBatchWorker is drainWorker with K-wide accumulation.
//
//ihtl:noalloc
func (e *Engine) drainBatchWorker(w, lo, hi int) {
	dst, k, p := e.curDst, e.curK, e.pb
	n := e.g.NumV
	C := p.numChunks
	faultinject.Fire(faultinject.SitePullPart)
	for b := lo; b < hi; b++ {
		rowLo := b << p.shift
		rowHi := rowLo + (1 << p.shift)
		if rowHi > n {
			rowHi = n
		}
		clear(dst[rowLo*k : rowHi*k])
		for c := 0; c < C; c++ {
			seg := b*C + c
			for q := p.binOff[seg]; q < p.binCur[seg]; q++ {
				db := int(p.binRows[q]) * k
				out := dst[db : db+k : db+k]
				vb := q * int64(k)
				xs := p.binValsK[vb : vb+int64(k) : vb+int64(k)]
				for j, x := range xs {
					out[j] += x
				}
			}
		}
	}
}

// pbBatchVals ensures the K-wide bin value array exists, (re)allocating
// when the width changes. Like batchBufs it is deliberately NOT
// annotated //ihtl:noalloc: growing on a width change is the one
// allocation StepBatch is allowed.
func (p *pbPlan) pbBatchVals(k int) {
	if p.valsK == k {
		return
	}
	p.binValsK = make([]float64, len(p.binRows)*k)
	p.valsK = k
}
