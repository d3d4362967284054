package spmv

// First-order per-step traffic model: BytesPerStep sums the byte
// footprint of every array one Step touches — topology streams counted
// once (index entries 8 bytes, vertex IDs 4), vertex-data accesses
// counted per access (VertexBytes each), scratch traffic (buffers,
// bins, cursors) counted per pass. It deliberately ignores cache
// reuse: the point of the bytes_per_edge column in the step report is
// to compare how much memory each kernel ASKS for per edge, which is
// what separates the streaming kernels (propagation blocking) from the
// random-access ones (pull, atomic push) on graphs whose vertex data
// outgrows the LLC.

// BytesPerStep returns the modelled bytes one scalar Step touches.
func (e *Engine) BytesPerStep() int64 {
	g := e.g
	V, E := int64(g.NumV), int64(g.NumE)
	const vb = int64(VertexBytes)
	idx := 8 * (V + 1)
	nbrs := 4 * E
	switch e.dir {
	case Pull:
		// Index + in-neighbour stream, one random src read per edge,
		// one dst write per vertex.
		return idx + nbrs + vb*E + vb*V
	case PushAtomic:
		// Index + out-neighbour stream, sequential src reads, a zeroing
		// pass over dst, and an atomic read-modify-write per edge.
		return idx + nbrs + vb*V + vb*V + 2*vb*E
	case PushBuffered:
		// As atomic, but the RMWs land in per-worker buffers that are
		// cleared and then merged (W reads + 1 write per vertex).
		W := int64(len(e.threadBufs))
		return idx + nbrs + vb*V + W*vb*V + 2*vb*E + (W+1)*vb*V
	case PushPartitioned:
		// The partitioned topology (sources replicated per partition),
		// one src read per partition-source, a zeroing pass, and one
		// unsynchronised RMW per edge.
		var srcs int64
		for i := range e.parts.Parts {
			srcs += int64(len(e.parts.Parts[i].Srcs))
		}
		return e.parts.TopologyBytes() + vb*srcs + vb*V + 2*vb*E
	case PropBlocked:
		// Bin: topology stream + sequential src reads + one 12-byte
		// (row, value) append per edge; drain: the same 12 bytes back,
		// plus a clear and a write per vertex; cursors staged and read
		// once per (bucket, chunk) segment.
		segs := int64(len(e.pb.binCur))
		bin := idx + nbrs + vb*V + 12*E
		drain := 12*E + 2*vb*V
		return bin + drain + 2*8*segs
	default:
		return 0
	}
}

// ResidentTopologyBytes returns the bytes of topology (plus
// topology-shaped scratch) the engine keeps resident: the CSR/CSC
// arrays, the partitioned replica for PushPartitioned, and the bin
// arrays of propagation blocking, comparable with the iHTL engine's
// resident_bytes column.
func (e *Engine) ResidentTopologyBytes() int64 {
	g := e.g
	V, E := int64(g.NumV), int64(g.NumE)
	switch e.dir {
	case PushPartitioned:
		return e.parts.TopologyBytes()
	case PropBlocked:
		segs := int64(len(e.pb.binCur))
		return 8*(V+1) + 4*E + 12*E + 2*8*segs
	default:
		return 8*(V+1) + 4*E
	}
}
