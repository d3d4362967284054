// Package compress implements the light-weight graph-topology
// compression the paper lists as future work for shrinking iHTL's
// topology data (§6, citing the WebGraph framework's techniques):
// per-vertex delta encoding of sorted neighbour lists with LEB128
// varints. Sorted adjacency has small gaps on locality-friendly
// orderings, so gaps compress far below the flat 4 bytes per
// neighbour.
//
// EncodeAdjacency/DecodeAdjacency produce a single stream for a whole
// CSR/CSC — the archival format used by cmd/ihtlconvert's "compressed"
// output. No engine steps this form: decoding inside the step costs
// more than the bytes it saves (DESIGN.md §13).
package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
