package core

// Compressed (varint gap-encoded) block topology on the hot path.
//
// The paper frames iHTL's win as bytes moved per edge and names
// WebGraph-style topology compression as the next lever (§6). This
// file puts compress.Chunked adjacency on the engine's execution path:
// with EngineOptions.BlockEncoding == EncodingVarint, the flipped push
// decodes one cache-resident chunk at a time into a per-worker scratch
// CSR inside the fused dispatch loop (decode fused with traversal,
// zero steady-state allocations), and the sparse pull decodes each
// row's gap stream directly into its accumulation — in ascending
// source order, exactly the flat kernel's order, so every pipeline
// stays bit-for-bit identical to the flat reference for all inputs.
//
// The flat Index arrays stay resident under either encoding: the
// schedulers (edge-balanced parts, degree buckets, chunk bounds) and
// the degree checks of the light/heavy pull split all read per-row
// edge counts, and at 8 bytes per row they are a small fraction of the
// 4-bytes-per-edge adjacency the encoding removes.

import (
	"fmt"

	"ihtl/internal/compress"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// BlockEncoding selects how an Engine stores and traverses the
// flipped/sparse block adjacency.
type BlockEncoding int

const (
	// EncodingAuto picks varint when only the encoded topology is
	// resident (a graph opened from a v2 engine file without flat
	// sections), flat otherwise.
	EncodingAuto BlockEncoding = iota
	// EncodingFlat traverses the flat Dsts/Srcs arrays, materialising
	// them first if only the encoded form is resident.
	EncodingFlat
	// EncodingVarint traverses the chunked varint-gap encoding,
	// building it first if only the flat form is resident.
	EncodingVarint
)

func (b BlockEncoding) String() string {
	switch b {
	case EncodingAuto:
		return "auto"
	case EncodingFlat:
		return "flat"
	case EncodingVarint:
		return "varint"
	default:
		return fmt.Sprintf("BlockEncoding(%d)", int(b))
	}
}

// ParseBlockEncoding parses the -encoding flag values.
func ParseBlockEncoding(s string) (BlockEncoding, error) {
	switch s {
	case "auto", "":
		return EncodingAuto, nil
	case "flat":
		return EncodingFlat, nil
	case "varint":
		return EncodingVarint, nil
	default:
		return 0, fmt.Errorf("core: unknown block encoding %q (want auto, flat or varint)", s)
	}
}

// EncodedOnly reports whether any block of ih carries edges only in
// encoded form (flat adjacency not resident) — the state of a graph
// opened lazily from a v2 varint engine file.
func (ih *IHTL) EncodedOnly() bool {
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Dsts == nil && fb.Enc != nil && fb.NumEdges() > 0 {
			return true
		}
	}
	sp := &ih.Sparse
	return sp.Srcs == nil && sp.Enc != nil && sp.NumEdges() > 0
}

// EnsureEncoded builds the chunked varint encoding of every block that
// does not carry one yet. Deterministic in the flat topology, and safe
// for concurrent callers on one IHTL: the graph's lazy-derivation lock
// serialises the builds, and a caller's own locked pass orders its
// later lock-free reads of the encoded forms.
func (ih *IHTL) EnsureEncoded() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Enc == nil {
			fb.Enc = compress.EncodeChunked(fb.Index, fb.Dsts, 0)
		}
	}
	if ih.Sparse.Enc == nil && len(ih.Sparse.Index) > 0 {
		ih.Sparse.Enc = compress.EncodeChunked(ih.Sparse.Index, ih.Sparse.Srcs, 0)
	}
}

// EnsureFlatTopology materialises the flat Dsts/Srcs arrays of every
// block that carries only the encoded form, so flat engines (and the
// v1 serialiser) can run over a graph opened from a v2 varint file.
// Safe for concurrent callers, like EnsureEncoded.
func (ih *IHTL) EnsureFlatTopology() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Dsts == nil && fb.Enc != nil {
			fb.Dsts = decodeFlat(fb.Enc)
		}
	}
	sp := &ih.Sparse
	if sp.Srcs == nil && sp.Enc != nil {
		sp.Srcs = decodeFlat(sp.Enc)
	}
}

// DropFlatTopology releases the flat adjacency arrays of blocks whose
// encoded form is resident, shrinking a varint engine's footprint to
// the compressed topology (plus the Index arrays the schedulers use).
// Flat engines built later over the same IHTL re-materialise via
// EnsureFlatTopology. It takes the same lazy-derivation lock as the
// Ensure methods, but unlike them it is destructive: do not drop while
// other goroutines may still be constructing engines over the graph.
func (ih *IHTL) DropFlatTopology() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Enc != nil {
			fb.Dsts = nil
		}
	}
	if ih.Sparse.Enc != nil {
		ih.Sparse.Srcs = nil
	}
}

// decodeFlat decodes a whole Chunked into a flat neighbour array
// (graph.VID is a uint32 alias, so the decode writes in place).
func decodeFlat(ck *compress.Chunked) []graph.VID {
	out := make([]graph.VID, ck.NumEdges)
	sIdx := make([]int32, ck.MaxSrcs+1)
	pos := 0
	for c := 0; c < ck.Chunks(); c++ {
		_, ne := ck.DecodeChunkCSR(c, sIdx, out[pos:])
		pos += ne
	}
	return out
}

// encScratch is one worker's chunk-decode scratch: a local CSR over
// the rows of one chunk. Sized from the maxima over every flipped
// block's chunks, so any chunk of any block decodes into it.
type encScratch struct {
	sIdx []int32
	dsts []uint32
}

// resolveEncoding applies EncodingAuto against the graph's resident
// forms.
func resolveEncoding(enc BlockEncoding, ih *IHTL) BlockEncoding {
	if enc != EncodingAuto {
		return enc
	}
	if ih.EncodedOnly() {
		return EncodingVarint
	}
	return EncodingFlat
}

// initEncoding resolves the configured encoding and, for varint,
// builds the encoded execution state: per-worker decode scratch sized
// from the block maxima, and the sparse block's per-row byte offsets
// (rowOff[i] is where row i's degree varint starts inside
// Sparse.Enc.Data), which give the pull kernels random row access into
// the chunked stream. Called once from NewEngineOpts, before the block
// tasks are built.
func (e *Engine) initEncoding(enc BlockEncoding) {
	ih := e.ih
	e.encoding = resolveEncoding(enc, ih)
	if e.encoding != EncodingVarint {
		ih.EnsureFlatTopology()
		return
	}
	ih.EnsureEncoded()
	e.varint = true
	maxSrcs, maxEdges := 0, 0
	for b := range ih.Blocks {
		ck := ih.Blocks[b].Enc
		if ck.MaxSrcs > maxSrcs {
			maxSrcs = ck.MaxSrcs
		}
		if ck.MaxEdges > maxEdges {
			maxEdges = ck.MaxEdges
		}
	}
	e.encScratch = make([]encScratch, e.pool.Workers())
	for w := range e.encScratch {
		e.encScratch[w] = encScratch{
			sIdx: make([]int32, maxSrcs+1),
			dsts: make([]uint32, maxEdges),
		}
	}
	if sp := &ih.Sparse; sp.Enc != nil && sp.Enc.NumSrc > 0 {
		e.sparseRowOff = sparseRowOffsets(sp.Enc)
	}
}

// sparseRowOffsets walks the chunked stream once and records each
// row's starting byte.
func sparseRowOffsets(ck *compress.Chunked) []int64 {
	off := make([]int64, ck.NumSrc)
	data := ck.Data
	for c := 0; c < ck.Chunks(); c++ {
		pos := ck.ByteOff[c]
		for r := ck.SrcOff[c]; r < ck.SrcOff[c+1]; r++ {
			off[r] = pos
			deg, n := uvarintChecked(data, pos)
			pos += int64(n)
			for i := uint64(0); i < deg; i++ {
				_, n := uvarintChecked(data, pos)
				pos += int64(n)
			}
		}
	}
	return off
}

// uvarintChecked decodes one varint at pos, panicking on truncation —
// the stream was validated (or built in-process) before this runs.
func uvarintChecked(data []byte, pos int64) (uint64, int) {
	var v uint64
	var shift uint
	for n := 0; ; n++ {
		b := data[pos+int64(n)]
		if b < 0x80 {
			return v | uint64(b)<<shift, n + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// buildBlockTasksEnc is buildBlockTasks for the varint encoding: one
// task per encoded chunk (the chunk IS the task granule — its decode
// scratch is the cache-resident working set), skipping chunks with no
// edges. Each task's hub destination bounds come from one
// construction-time decode of its chunk.
func buildBlockTasksEnc(ih *IHTL) (tasks []blockTask, perBlock, empty []int) {
	perBlock = make([]int, len(ih.Blocks))
	maxSrcs, maxEdges := 0, 0
	for b := range ih.Blocks {
		ck := ih.Blocks[b].Enc
		if ck.MaxSrcs > maxSrcs {
			maxSrcs = ck.MaxSrcs
		}
		if ck.MaxEdges > maxEdges {
			maxEdges = ck.MaxEdges
		}
	}
	sIdx := make([]int32, maxSrcs+1)
	dsts := make([]uint32, maxEdges)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.NumEdges() == 0 {
			empty = append(empty, b)
			continue
		}
		ck := fb.Enc
		for c := 0; c < ck.Chunks(); c++ {
			lo, hi := int(ck.SrcOff[c]), int(ck.SrcOff[c+1])
			if fb.Index[hi]-fb.Index[lo] == 0 {
				continue
			}
			t := blockTask{block: b, chunk: c, lo: lo, hi: hi}
			_, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
			for i := 0; i < ne; i++ {
				d := int(dsts[i])
				if t.dHi == t.dLo {
					t.dLo, t.dHi = d, d+1
					continue
				}
				if d < t.dLo {
					t.dLo = d
				}
				if d+1 > t.dHi {
					t.dHi = d + 1
				}
			}
			tasks = append(tasks, t)
			perBlock[b]++
		}
		if perBlock[b] == 0 {
			empty = append(empty, b)
		}
	}
	return tasks, perBlock, empty
}

// Encoding returns the engine's resolved block encoding (never
// EncodingAuto).
func (e *Engine) Encoding() BlockEncoding { return e.encoding }

// pushTaskEnc pushes one encoded flipped task into worker w's hub
// buffer: decode the task's chunk into the worker's scratch CSR, then
// run the flat push loop over the scratch. The scratch is sized at
// construction, so the steady state allocates nothing.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) pushTaskEnc(w int, bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	sc := unchecked.PtrAt(e.encScratch, w)
	nsrc, _ := fb.Enc.DecodeChunkCSR(bt.chunk, sc.sIdx, sc.dsts)
	sIdx, dsts := sc.sIdx, sc.dsts
	for s := 0; s < nsrc; s++ {
		x := unchecked.At(src, bt.lo+s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(sIdx, s+1)
		for i := unchecked.At(sIdx, s); i < end; i++ {
			unchecked.AddAt(buf, int(unchecked.At(dsts, int(i))), x)
		}
	}
}

// pushTaskEncAtomic is pushTaskEnc for the AtomicFlipped ablation:
// CAS straight into dst.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) pushTaskEncAtomic(w int, bt *blockTask, fb *FlippedBlock, src, dst []float64) {
	sc := unchecked.PtrAt(e.encScratch, w)
	nsrc, _ := fb.Enc.DecodeChunkCSR(bt.chunk, sc.sIdx, sc.dsts)
	sIdx, dsts := sc.sIdx, sc.dsts
	for s := 0; s < nsrc; s++ {
		x := unchecked.At(src, bt.lo+s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(sIdx, s+1)
		for i := unchecked.At(sIdx, s); i < end; i++ {
			spmv.AtomicAddFloat64(unchecked.PtrAt(dst, int(unchecked.At(dsts, int(i)))), x)
		}
	}
}

// pushTaskEncBatch is pushTaskEnc with K-wide lanes.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) pushTaskEncBatch(w, k int, bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	sc := unchecked.PtrAt(e.encScratch, w)
	nsrc, _ := fb.Enc.DecodeChunkCSR(bt.chunk, sc.sIdx, sc.dsts)
	sIdx, dsts := sc.sIdx, sc.dsts
	for s := 0; s < nsrc; s++ {
		xs := unchecked.SliceAt(src, (bt.lo+s)*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		end := unchecked.At(sIdx, s+1)
		for i := unchecked.At(sIdx, s); i < end; i++ {
			db := int(unchecked.At(dsts, int(i))) * k
			for j, x := range xs {
				unchecked.AddAt(buf, db+j, x)
			}
		}
	}
}

// sparseRowSumEnc pulls sparse row i from the encoded stream: decode
// the row's gap varints starting at its recorded byte offset,
// accumulating src reads in ascending source order — the flat pull's
// exact accumulation order, so the sum is bit-identical for all
// inputs. No scratch: the decode IS the traversal.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseRowSumEnc(i int, src []float64) float64 {
	data := e.ih.Sparse.Enc.Data
	pos := unchecked.At(e.sparseRowOff, i)
	var deg uint64
	var shift uint
	for {
		b := unchecked.At(data, int(pos))
		pos++
		if b < 0x80 {
			deg |= uint64(b) << shift
			break
		}
		deg |= uint64(b&0x7f) << shift
		shift += 7
	}
	sum := 0.0
	prev := uint32(0)
	for ; deg > 0; deg-- {
		var gap uint64
		shift = 0
		for {
			b := unchecked.At(data, int(pos))
			pos++
			if b < 0x80 {
				gap |= uint64(b) << shift
				break
			}
			gap |= uint64(b&0x7f) << shift
			shift += 7
		}
		prev += uint32(gap)
		sum += unchecked.At(src, int(prev))
	}
	return sum
}

// sparseRowAccEnc is sparseRowSumEnc with K-wide lanes, accumulating
// into out (the row's dst lanes, already zeroed by the caller).
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseRowAccEnc(i, k int, src, out []float64) {
	data := e.ih.Sparse.Enc.Data
	pos := unchecked.At(e.sparseRowOff, i)
	var deg uint64
	var shift uint
	for {
		b := unchecked.At(data, int(pos))
		pos++
		if b < 0x80 {
			deg |= uint64(b) << shift
			break
		}
		deg |= uint64(b&0x7f) << shift
		shift += 7
	}
	prev := uint32(0)
	for ; deg > 0; deg-- {
		var gap uint64
		shift = 0
		for {
			b := unchecked.At(data, int(pos))
			pos++
			if b < 0x80 {
				gap |= uint64(b) << shift
				break
			}
			gap |= uint64(b&0x7f) << shift
			shift += 7
		}
		prev += uint32(gap)
		xs := unchecked.SliceAt(src, int(prev)*k, k)
		for j, x := range xs {
			unchecked.AddAt(out, j, x)
		}
	}
}
