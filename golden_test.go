package ihtl_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ihtl"
)

// goldenRankHashes pins the FNV-1a hash of the PageRank vector that
// TestPageRankGoldenHash computes, per worker count. Every engine is
// bit-for-bit reproducible at a fixed worker count, so these change
// only when the engine's arithmetic changes: any such change shows up
// here, in review. Different worker counts regroup the flipped
// partial sums, so each count has its own hash.
var goldenRankHashes = map[int]uint64{
	1: 0x2b69011bc2ea35e9,
	2: 0x2b69011bc2ea35e9,
	4: 0x2908f64a782f5cdf,
}

// TestPageRankGoldenHash runs PageRank to 1e-9 on a fixed R-MAT graph
// through the default public NewEngine at 1, 2 and 4 workers, checks
// that the ranks agree with the pull baseline to tolerance, and checks
// the rank vector's hash against goldenRankHashes.
func TestPageRankGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which
		// changes the low-order bits the hashes pin.
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	g, err := ihtl.GenerateRMAT(12, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	opt := ihtl.PageRankOptions{Tol: 1e-9}
	refPool := ihtl.NewPool(1)
	defer refPool.Close()
	pull, err := ihtl.NewBaselineEngine(g, refPool, ihtl.Pull)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ihtl.PageRankBaseline(g, pull, refPool, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		pool := ihtl.NewPool(workers)
		eng, err := ihtl.NewEngine(g, pool, ihtl.Params{HubsPerBlock: 64})
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		ranks, err := ihtl.PageRank(eng, pool, opt)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for v := range ranks {
			if math.Abs(ranks[v]-ref[v]) > 1e-8 {
				t.Fatalf("workers=%d vertex %d: rank %v, pull baseline %v", workers, v, ranks[v], ref[v])
			}
		}
		h := fnv.New64a()
		var b [8]byte
		for _, r := range ranks {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
			h.Write(b[:])
		}
		if got, want := h.Sum64(), goldenRankHashes[workers]; got != want {
			t.Errorf("workers=%d: rank hash %#x, golden %#x", workers, got, want)
		}
	}
}
