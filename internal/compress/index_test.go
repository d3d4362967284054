package compress

import "testing"

func TestIndexRoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{0, 0, 0},
		{0, 3, 3, 7, 1 << 40},
		{5, 5, 6},
	}
	for _, idx := range cases {
		enc := EncodeIndex(idx)
		got, err := DecodeIndex(enc, len(idx))
		if err != nil {
			t.Fatalf("%v: %v", idx, err)
		}
		for i := range idx {
			if got[i] != idx[i] {
				t.Fatalf("%v: got %v", idx, got)
			}
		}
	}
}

func TestDecodeIndexRejects(t *testing.T) {
	enc := EncodeIndex([]int64{0, 3, 7})
	if _, err := DecodeIndex(enc[:len(enc)-1], 3); err == nil {
		t.Error("truncated index accepted")
	}
	if _, err := DecodeIndex(append(enc, 0), 3); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeIndex(enc, 1<<30); err == nil {
		t.Error("hostile length accepted")
	}
	if _, err := DecodeIndex([]byte{0xFF}, 1); err == nil {
		t.Error("bare continuation byte accepted")
	}
	// Running sum overflowing int64.
	bad := EncodeIndex([]int64{1 << 62})
	bad = append(bad, EncodeIndex([]int64{1 << 62})...)
	bad = append(bad, EncodeIndex([]int64{1 << 62})...)
	if _, err := DecodeIndex(bad, 3); err == nil {
		t.Error("int64 overflow accepted")
	}
}

// TestEncodeCapacityNoGrow pins the satellite fix: the sampled
// capacity estimate must cover sorted locality-friendly inputs in one
// allocation (no append grow), while staying within 2x of the actual
// encoded size (no return to the flat 2·E+V over-reserve).
func TestEncodeCapacityNoGrow(t *testing.T) {
	n := 4000
	index := make([]int64, n+1)
	var nbrs []uint32
	x := uint32(12345)
	for v := 0; v < n; v++ {
		deg := 5 + int(x%32)
		x = x*1664525 + 1013904223
		cur := uint32(v)
		for k := 0; k < deg; k++ {
			x = x*1664525 + 1013904223
			cur += x % 64
			nbrs = append(nbrs, cur)
		}
		index[v+1] = int64(len(nbrs))
	}
	est := estimateAdjCap(index, nbrs)
	enc := EncodeAdjacency(index, nbrs)
	if len(enc) > est {
		t.Fatalf("estimate %d below encoded size %d: encode grew", est, len(enc))
	}
	if cap(enc) != est {
		t.Fatalf("encode grew: cap %d, initial estimate %d", cap(enc), est)
	}
	if est > 2*len(enc)+64 {
		t.Fatalf("estimate %d wastes >2x over %d encoded bytes", est, len(enc))
	}
}

func TestEstimateDegenerate(t *testing.T) {
	if got := estimateAdjCap([]int64{0}, nil); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
	// All edges on one row the sample stride (200/64 = 3) misses:
	// row 151 is not a multiple of 3, so sampleEdges stays 0 and the
	// fallback width must still cover the stream.
	index := make([]int64, 201)
	for v := 152; v <= 200; v++ {
		index[v] = 3
	}
	nbrs := []uint32{1, 2, 3}
	est := estimateAdjCap(index, nbrs)
	enc := EncodeAdjacency(index, nbrs)
	if est < len(enc)/2 {
		t.Fatalf("degenerate estimate %d far below %d", est, len(enc))
	}
}
