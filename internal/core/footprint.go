package core

import "ihtl/internal/spmv"

// topologyStreamBytes returns the modelled topology bytes one scalar
// Step streams from memory, under the engine's encoding. Flat engines
// stream each block's CSR/CSC (8-byte index entries, 4-byte vertex
// IDs); varint engines stream the encoded chunks (data plus chunk
// tables) and, on the sparse side, the per-row byte offsets. The
// per-worker decode scratch is cache-resident by construction (that is
// what the chunk size bounds), so like the hub buffers' residency it
// contributes no memory traffic here.
func (e *Engine) topologyStreamBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if e.varint {
			total += fb.Enc.EncodedBytes()
		} else {
			nsrc := int64(len(fb.Index) - 1)
			total += 8*(nsrc+1) + 4*fb.NumEdges()
		}
	}
	sp := &ih.Sparse
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n <= 0 {
		return total
	}
	if e.varint {
		total += int64(len(sp.Enc.Data)) // gap streams (degree inline)
		total += 8 * n                   // per-row byte offsets
		if e.sparseKernel == SparsePullDegree {
			total += 8 * (n + 1) // degree checks of the light/heavy split
		}
	} else {
		total += 8*(n+1) + 4*sp.NumEdges()
	}
	total += 4 * int64(len(sp.Heavy))
	return total
}

// BytesPerStep returns the modelled bytes one scalar Step touches: the
// topology stream under the engine's encoding, one vertex-data access
// per topology access, and the hub-buffer merge traffic per worker.
// The model matches spmv.Engine.BytesPerStep — flat topology index
// entries are 8 bytes, vertex IDs 4, vertex data spmv.VertexBytes — so
// the step report's bytes_per_edge column is comparable across
// baseline and iHTL kernels and across encodings.
func (e *Engine) BytesPerStep() int64 {
	ih := e.ih
	const vb = int64(spmv.VertexBytes)
	W := int64(e.pool.Workers())
	total := e.topologyStreamBytes()

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

// TopologyBytesPerStep returns only the topology-stream half of
// BytesPerStep — the bytes the encoding actually changes. The
// flat-vs-varint ablation (ihtlbench -encjson) reports its
// bytes_per_edge from this: vertex-data traffic is identical under
// both encodings, so including it would dilute the compression ratio
// into an apples-to-oranges number.
func (e *Engine) TopologyBytesPerStep() int64 { return e.topologyStreamBytes() }

// ResidentTopologyBytes returns the bytes of topology the engine needs
// resident in memory to run: always the per-block index arrays (the
// schedulers read per-row edge counts under either encoding), plus the
// flat adjacency or the encoded chunks with the sparse row offsets,
// plus the degree buckets. Vertex data and hub buffers are
// excluded — they scale with NumV, not with the topology
// representation this measures.
func (e *Engine) ResidentTopologyBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		total += 8 * int64(len(fb.Index))
		if e.varint {
			total += fb.Enc.EncodedBytes()
		} else {
			total += 4 * fb.NumEdges()
		}
	}
	sp := &ih.Sparse
	total += 8 * int64(len(sp.Index))
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n > 0 {
		if e.varint {
			total += sp.Enc.EncodedBytes()
			total += 8 * int64(len(e.sparseRowOff))
		} else {
			total += 4 * sp.NumEdges()
		}
	}
	total += 4 * int64(len(sp.Heavy))
	return total
}
