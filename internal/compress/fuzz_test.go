package compress

import (
	"bytes"
	"testing"
)

// FuzzDecodeAdjacency feeds hostile byte streams and shapes to the
// checked adjacency decoder: it must either round-trip-consistently
// succeed or return an error — never panic, and never allocate more
// neighbour slots than the stream could encode.
func FuzzDecodeAdjacency(f *testing.F) {
	f.Add(EncodeAdjacency([]int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 4_000_000_000}), 3, int64(5))
	f.Add([]byte{}, 0, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, 1, int64(1))
	f.Add([]byte{1, 0x80}, 1, int64(1))
	f.Add([]byte{2, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 1, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, numV int, numE int64) {
		if numV > 1<<20 || numE > 1<<22 {
			return // keep memory bounded; hostile shapes are covered below the cap
		}
		index, nbrs, err := DecodeAdjacency(data, numV, numE)
		if err != nil {
			return
		}
		if len(index) != numV+1 || int64(len(nbrs)) != numE {
			t.Fatalf("accepted stream decoded to wrong shape %d/%d", len(index), len(nbrs))
		}
		// Accepted input must re-encode to the identical stream:
		// varint encodings are canonical except for padded
		// continuation bytes, which a decoded-accepted stream must
		// not contain.
		if enc := EncodeAdjacency(index, nbrs); !bytes.Equal(enc, data) {
			// Non-canonical (padded) varints decode fine but
			// re-encode shorter; both are valid, so only flag
			// growth.
			if len(enc) > len(data) {
				t.Fatalf("re-encode grew %d -> %d bytes", len(data), len(enc))
			}
		}
	})
}

// FuzzDecodeIndex exercises the offset-table decoder the v2 engine
// file trusts for section shapes: malformed input must error, never
// panic or over-allocate.
func FuzzDecodeIndex(f *testing.F) {
	f.Add(EncodeIndex([]int64{0, 3, 3, 7, 1 << 40}), 5)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x80}, 1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		out, err := DecodeIndex(data, n)
		if err != nil {
			return
		}
		if len(out) != n {
			t.Fatalf("accepted stream decoded to %d offsets, want %d", len(out), n)
		}
		prev := int64(0)
		if n > 0 {
			prev = out[0]
		}
		for _, v := range out {
			if v < prev {
				t.Fatalf("decoded offsets not monotone: %v", out)
			}
			prev = v
		}
	})
}
