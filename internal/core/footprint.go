package core

import "ihtl/internal/spmv"

// BytesPerStep returns the modelled bytes one scalar Step touches: the
// topology stream, one vertex-data access per topology access, and the
// hub-buffer merge traffic per worker.
// The model matches spmv.Engine.BytesPerStep — flat topology index
// entries are 8 bytes, vertex IDs 4, vertex data spmv.VertexBytes — so
// the step report's bytes_per_edge column is comparable across
// baseline and iHTL kernels.
func (e *Engine) BytesPerStep() int64 {
	ih := e.ih
	const vb = int64(spmv.VertexBytes)
	W := int64(e.pool.Workers())
	total := e.ResidentTopologyBytes()

	// Flipped blocks: one sequential src read per block source, one
	// buffered write per edge, and the countdown-gated merge (W buffer
	// reads + 1 dst write per hub of the block, plus the clears of the
	// dirtied buffer ranges).
	for b := range ih.Blocks {
		blk := &ih.Blocks[b]
		nsrc := int64(len(blk.Index) - 1)
		edges := blk.NumEdges()
		hubs := int64(ih.HubsPerBlock)
		if rem := int64(ih.NumHubs) - int64(b)*hubs; rem < hubs {
			hubs = rem
		}
		total += vb * nsrc             // sequential src reads
		total += vb * edges            // cache-resident buffer updates
		total += (2*W + 1) * vb * hubs // clear + merge reads + dst write
	}

	// Sparse block: one random src read per edge, one dst write per row.
	sp := &ih.Sparse
	if n := int64(ih.NumV) - int64(sp.DestLo); n > 0 {
		total += vb * sp.NumEdges()
		total += vb * n
	}
	return total
}

// ResidentTopologyBytes returns the bytes of topology the engine needs
// addressable to run, which is also the topology one scalar Step
// streams: each block's CSR/CSC (8-byte index entries, 4-byte vertex
// IDs) plus the degree-bucket list. Vertex data and hub buffers are
// excluded — they scale with NumV, not with the topology.
func (e *Engine) ResidentTopologyBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		total += 8*int64(len(fb.Index)) + 4*fb.NumEdges()
	}
	sp := &ih.Sparse
	if ih.NumV > sp.DestLo {
		total += 8*int64(len(sp.Index)) + 4*sp.NumEdges()
	}
	return total + 4*int64(len(sp.Heavy))
}
