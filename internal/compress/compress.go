// Package compress implements the light-weight graph-topology
// compression the paper lists as future work for shrinking iHTL's
// topology data (§6, citing the WebGraph framework's techniques):
// per-vertex delta encoding of sorted neighbour lists with LEB128
// varints. Sorted adjacency has small gaps on locality-friendly
// orderings, so gaps compress far below the flat 4 bytes per
// neighbour.
//
// Two layouts are provided. EncodeAdjacency/DecodeAdjacency produce a
// single stream for a whole CSR/CSC — the archival format used by
// cmd/ihtlconvert's "compressed" output. Chunked splits the same
// per-vertex streams at edge-count boundaries so an engine worker can
// decode one chunk at a time into a small cache-resident scratch
// buffer inside the traversal loop; this is the form the core engine
// executes directly (EngineOptions.BlockEncoding) and the v2 engine
// file stores.
package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ihtl/internal/unchecked"
)

// uvarintLen returns the encoded size of v in bytes without encoding.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// estimateAdjCap returns an initial output-buffer capacity for
// encoding the given adjacency, computed from the input instead of the
// old flat 2·E+V guess (which over-reserved ~2× on tightly clustered
// orderings and under-reserved on scattered ones, forcing grows mid
// build). Degree-varint bytes are summed exactly (one cheap O(V)
// pass); gap bytes are extrapolated from the exact encoded width of a
// sample of rows, with a 1/8 + 16 byte safety margin so
// locality-friendly sorted inputs encode without a single grow.
func estimateAdjCap(index []int64, nbrs []uint32) int {
	numV := len(index) - 1
	if numV < 0 {
		return 0
	}
	totalE := index[numV] - index[0]
	degBytes := 0
	for v := 0; v < numV; v++ {
		degBytes += uvarintLen(uint64(index[v+1] - index[v]))
	}
	if totalE == 0 {
		return degBytes
	}

	// Sample up to 64 evenly spaced rows (or until 4096 edges seen)
	// and measure their exact gap-stream width.
	const maxRows, maxEdges = 64, 4096
	stride := numV / maxRows
	if stride < 1 {
		stride = 1
	}
	var sampleBytes, sampleEdges int64
	for v := 0; v < numV && sampleEdges < maxEdges; v += stride {
		lo, hi := index[v], index[v+1]
		prev := uint64(0)
		for i := lo; i < hi; i++ {
			cur := uint64(nbrs[i])
			sampleBytes += int64(uvarintLen(cur - prev))
			prev = cur
		}
		sampleEdges += hi - lo
	}
	if sampleEdges == 0 {
		// The stride only hit empty rows; fall back to a safe width.
		return degBytes + int(totalE)*3 + 16
	}
	est := sampleBytes * totalE / sampleEdges
	est += est/8 + 16
	return degBytes + int(est)
}

// appendAdjacency appends the per-vertex varint streams for rows
// [vLo, vHi) to dst: for each vertex a varint degree, the first
// neighbour as a varint, then varint gaps (successor minus
// predecessor; 0 gaps are legal so duplicate-free input is not
// required).
func appendAdjacency(dst []byte, index []int64, nbrs []uint32, vLo, vHi int) []byte {
	for v := vLo; v < vHi; v++ {
		lo, hi := index[v], index[v+1]
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		prev := uint64(0)
		for i := lo; i < hi; i++ {
			cur := uint64(nbrs[i])
			dst = binary.AppendUvarint(dst, cur-prev)
			prev = cur
		}
	}
	return dst
}

// EncodeAdjacency compresses a CSR/CSC adjacency (offset array plus
// neighbour array, lists sorted ascending per vertex) into one byte
// stream.
func EncodeAdjacency(index []int64, nbrs []uint32) []byte {
	numV := len(index) - 1
	out := make([]byte, 0, estimateAdjCap(index, nbrs))
	return appendAdjacency(out, index, nbrs, 0, numV)
}

// DecodeAdjacency reverses EncodeAdjacency. numV and numE give the
// expected shape; a mismatch or malformed stream returns an error.
func DecodeAdjacency(data []byte, numV int, numE int64) ([]int64, []uint32, error) {
	if numV < 0 || numE < 0 {
		return nil, nil, fmt.Errorf("compress: negative shape %d/%d", numV, numE)
	}
	index := make([]int64, numV+1)
	// Each encoded value needs at least one byte, so cap the initial
	// allocation by the input size (hostile numE cannot force a huge
	// up-front allocation).
	capHint := numE
	if int64(len(data)) < capHint {
		capHint = int64(len(data))
	}
	nbrs := make([]uint32, 0, capHint)
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("compress: truncated varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	for v := 0; v < numV; v++ {
		deg, err := next()
		if err != nil {
			return nil, nil, err
		}
		if int64(deg) > numE-int64(len(nbrs)) {
			return nil, nil, fmt.Errorf("compress: vertex %d degree %d exceeds remaining edges", v, deg)
		}
		index[v+1] = index[v] + int64(deg)
		prev := uint64(0)
		for i := uint64(0); i < deg; i++ {
			gap, err := next()
			if err != nil {
				return nil, nil, err
			}
			cur := prev + gap
			if cur >= 1<<32 {
				return nil, nil, fmt.Errorf("compress: neighbour %d out of VID range", cur)
			}
			nbrs = append(nbrs, uint32(cur))
			prev = cur
		}
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("compress: %d trailing bytes", len(data)-pos)
	}
	if int64(len(nbrs)) != numE {
		return nil, nil, fmt.Errorf("compress: decoded %d edges, want %d", len(nbrs), numE)
	}
	return index, nbrs, nil
}

// EncodeIndex delta-encodes a monotone nondecreasing offset array
// (a CSR/CSC index) as varint gaps: the first value absolute, then
// successive differences. Used by the v2 engine file for offset
// tables that do not sit on the step hot path.
func EncodeIndex(index []int64) []byte {
	out := make([]byte, 0, len(index)+8)
	prev := int64(0)
	for _, v := range index {
		out = binary.AppendUvarint(out, uint64(v-prev))
		prev = v
	}
	return out
}

// DecodeIndex reverses EncodeIndex into n offsets. Malformed input —
// truncated varints, gaps whose running sum leaves int64 range,
// trailing bytes, or n exceeding what the stream could possibly hold —
// returns an error, never panics.
func DecodeIndex(data []byte, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("compress: negative index length %d", n)
	}
	// Each offset needs at least one byte: reject hostile n before
	// allocating.
	if n > len(data) {
		return nil, fmt.Errorf("compress: index length %d exceeds %d-byte stream", n, len(data))
	}
	out := make([]int64, n)
	pos := 0
	prev := uint64(0)
	for i := 0; i < n; i++ {
		gap, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("compress: truncated varint at offset %d", pos)
		}
		pos += k
		cur := prev + gap
		if cur < prev || cur > 1<<63-1 {
			return nil, fmt.Errorf("compress: offset %d overflows int64", i)
		}
		out[i] = int64(cur)
		prev = cur
	}
	if pos != len(data) {
		return nil, fmt.Errorf("compress: %d trailing bytes", len(data)-pos)
	}
	return out, nil
}

// Ratio returns compressed bytes per edge for quick reporting.
func Ratio(encoded []byte, numE int64) float64 {
	if numE == 0 {
		return 0
	}
	return float64(len(encoded)) / float64(numE)
}

// DefaultChunkEdges is the edge budget per encoded chunk: 4096 edges
// decode into a 16 KiB uint32 scratch plus a ≤16 KiB offset scratch,
// comfortably cache-resident per worker next to the hub buffer.
const DefaultChunkEdges = 4096

// Chunked is an adjacency encoded as per-vertex varint gap streams
// split into chunks of bounded edge count, so one chunk decodes into a
// fixed small scratch buffer. Chunk c covers source rows
// [SrcOff[c], SrcOff[c+1]) and bytes [ByteOff[c], ByteOff[c+1]) of
// Data; each row's stream is self-contained (degree varint, absolute
// first neighbour, then gaps), so chunks decode independently.
type Chunked struct {
	NumSrc   int   // rows covered (len of the original index minus 1)
	NumEdges int64 // total neighbours
	MaxSrcs  int   // max rows in any chunk: scratch offsets need MaxSrcs+1
	MaxEdges int   // max neighbours in any chunk: scratch needs MaxEdges
	SrcOff   []int32
	ByteOff  []int64
	Data     []byte
}

// Chunks returns the number of chunks.
func (ck *Chunked) Chunks() int { return len(ck.ByteOff) - 1 }

// EncodedBytes returns the total encoded size, including the chunk
// tables.
func (ck *Chunked) EncodedBytes() int64 {
	return int64(len(ck.Data)) + int64(len(ck.SrcOff))*4 + int64(len(ck.ByteOff))*8
}

// EncodeChunked compresses a CSR/CSC adjacency into chunks of at most
// targetEdges neighbours (and at most targetEdges rows, so both
// scratch arrays stay bounded); targetEdges <= 0 selects
// DefaultChunkEdges. A single row whose degree exceeds targetEdges
// becomes its own oversized chunk and MaxEdges reports it, so callers
// size scratch from MaxSrcs/MaxEdges, never from the target.
func EncodeChunked(index []int64, nbrs []uint32, targetEdges int) *Chunked {
	if targetEdges <= 0 {
		targetEdges = DefaultChunkEdges
	}
	numV := len(index) - 1
	if numV < 0 {
		numV = 0
	}
	ck := &Chunked{
		NumSrc:   numV,
		NumEdges: int64(len(nbrs)),
		SrcOff:   []int32{0},
		ByteOff:  []int64{0},
		Data:     make([]byte, 0, estimateAdjCap(index, nbrs)),
	}
	v := 0
	for v < numV {
		lo := v
		edges := int64(0)
		for v < numV {
			deg := index[v+1] - index[v]
			if v > lo && (edges+deg > int64(targetEdges) || v-lo >= targetEdges) {
				break
			}
			edges += deg
			v++
		}
		ck.Data = appendAdjacency(ck.Data, index, nbrs, lo, v)
		ck.SrcOff = append(ck.SrcOff, int32(v))
		ck.ByteOff = append(ck.ByteOff, int64(len(ck.Data)))
		if v-lo > ck.MaxSrcs {
			ck.MaxSrcs = v - lo
		}
		if int(edges) > ck.MaxEdges {
			ck.MaxEdges = int(edges)
		}
	}
	return ck
}

// DecodeChunkCSR decodes chunk c into caller scratch: sIdx (length at
// least MaxSrcs+1) receives local CSR offsets, dsts (length at least
// MaxEdges) the neighbours. Returns the row and edge counts. The
// stream is trusted and the decode is unchecked (//ihtl:nobce): data
// of external origin MUST pass Validate at load time — parseV2 does —
// after which every cursor and count below stays inside its slice by
// the validated chunk-table invariants. The -tags=ihtlchecked build
// restores checked indexing here for debugging.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (ck *Chunked) DecodeChunkCSR(c int, sIdx []int32, dsts []uint32) (nsrc, ne int) {
	data := ck.Data
	pos := unchecked.At(ck.ByteOff, c)
	nsrc = int(unchecked.At(ck.SrcOff, c+1) - unchecked.At(ck.SrcOff, c))
	e := 0
	for s := 0; s < nsrc; s++ {
		unchecked.SetAt(sIdx, s, int32(e))
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
		for i := uint64(0); i < deg; i++ {
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
			unchecked.SetAt(dsts, e, prev)
			e++
		}
	}
	unchecked.SetAt(sIdx, nsrc, int32(e))
	return nsrc, e
}

// Validate fully decodes every chunk with a checked reader and
// verifies the structure: monotone chunk tables, per-chunk streams
// that consume exactly their byte range, every neighbour below maxDst,
// totals matching NumSrc/NumEdges, and MaxSrcs/MaxEdges covering the
// actual maxima. A Chunked of external origin (a v2 engine file) must
// pass Validate before DecodeChunkCSR may trust it.
//
//ihtl:nopanic
func (ck *Chunked) Validate(maxDst uint32) error {
	return ck.ValidateRows(0, maxDst, nil)
}

// ValidateRows is Validate with every neighbour confined to
// [minDst, maxDst) and, when index is non-nil, every row's degree
// equal to index[row+1]-index[row]: the stream and a CSR offset array
// kept beside it must describe the same rows.
//
//ihtl:nopanic
func (ck *Chunked) ValidateRows(minDst, maxDst uint32, index []int64) error {
	if index != nil && len(index) != ck.NumSrc+1 {
		return fmt.Errorf("compress: index has %d offsets for %d rows", len(index), ck.NumSrc)
	}
	nc := len(ck.ByteOff) - 1
	if nc < 0 || len(ck.SrcOff) != nc+1 {
		return fmt.Errorf("compress: chunk tables %d/%d rows mismatched", len(ck.SrcOff), len(ck.ByteOff))
	}
	if ck.SrcOff[0] != 0 || ck.ByteOff[0] != 0 {
		return fmt.Errorf("compress: chunk tables must start at 0")
	}
	if int(ck.SrcOff[nc]) != ck.NumSrc {
		return fmt.Errorf("compress: chunk rows end at %d, want %d", ck.SrcOff[nc], ck.NumSrc)
	}
	if ck.ByteOff[nc] != int64(len(ck.Data)) {
		return fmt.Errorf("compress: chunk bytes end at %d, want %d", ck.ByteOff[nc], len(ck.Data))
	}
	// Scratch buffers are sized from these, so bound them before any
	// caller allocates.
	if ck.NumSrc < 0 || ck.NumEdges < 0 {
		return fmt.Errorf("compress: negative shape %d/%d", ck.NumSrc, ck.NumEdges)
	}
	if ck.MaxSrcs < 0 || ck.MaxSrcs > ck.NumSrc {
		return fmt.Errorf("compress: MaxSrcs %d outside [0, %d]", ck.MaxSrcs, ck.NumSrc)
	}
	if ck.MaxEdges < 0 || int64(ck.MaxEdges) > ck.NumEdges {
		return fmt.Errorf("compress: MaxEdges %d outside [0, %d]", ck.MaxEdges, ck.NumEdges)
	}
	var totalE int64
	for c := 0; c < nc; c++ {
		nsrc := int(ck.SrcOff[c+1]) - int(ck.SrcOff[c])
		bLo, bHi := ck.ByteOff[c], ck.ByteOff[c+1]
		if nsrc < 0 || int(ck.SrcOff[c+1]) > ck.NumSrc || bLo > bHi || bHi > int64(len(ck.Data)) {
			return fmt.Errorf("compress: chunk %d has negative extent", c)
		}
		if nsrc > ck.MaxSrcs {
			return fmt.Errorf("compress: chunk %d rows %d exceed MaxSrcs %d", c, nsrc, ck.MaxSrcs)
		}
		data := ck.Data[bLo:bHi]
		pos := 0
		ce := int64(0)
		for s := 0; s < nsrc; s++ {
			deg, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return fmt.Errorf("compress: chunk %d truncated at row %d", c, s)
			}
			pos += k
			if deg > uint64(ck.MaxEdges)-uint64(ce) {
				return fmt.Errorf("compress: chunk %d edges exceed MaxEdges %d", c, ck.MaxEdges)
			}
			if row := int(ck.SrcOff[c]) + s; index != nil && uint64(index[row+1]-index[row]) != deg {
				return fmt.Errorf("compress: row %d holds %d edges, index says %d", row, deg, index[row+1]-index[row])
			}
			prev := uint64(0)
			for i := uint64(0); i < deg; i++ {
				gap, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return fmt.Errorf("compress: chunk %d truncated in row %d", c, s)
				}
				pos += k
				cur := prev + gap
				if cur < uint64(minDst) || cur >= uint64(maxDst) {
					return fmt.Errorf("compress: chunk %d neighbour %d outside [%d, %d)", c, cur, minDst, maxDst)
				}
				prev = cur
			}
			ce += int64(deg)
		}
		if pos != len(data) {
			return fmt.Errorf("compress: chunk %d has %d trailing bytes", c, len(data)-pos)
		}
		totalE += ce
	}
	if totalE != ck.NumEdges {
		return fmt.Errorf("compress: chunks hold %d edges, want %d", totalE, ck.NumEdges)
	}
	return nil
}
