package ihtl_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
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
	g, opt := goldenSetup(t)
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
		if got, want := rankHash(ranks), goldenRankHashes[workers]; got != want {
			t.Errorf("workers=%d: rank hash %#x, golden %#x", workers, got, want)
		}
	}
}

// TestMappedPageRankGoldenHash runs the golden PageRank through the
// deployment path — SaveFileV2, OpenEngineFile, an engine over the
// mapping, out-degrees from the file — at 1, 2 and 4 workers, and
// requires each rank vector to hash bitwise equal to the resident
// engine's and to goldenRankHashes: a mapped engine runs the resident
// kernels over the same tasks, so nothing may regroup a sum.
func TestMappedPageRankGoldenHash(t *testing.T) {
	g, opt := goldenSetup(t)
	path := filepath.Join(t.TempDir(), "golden.ihtl2")
	for _, workers := range []int{1, 2, 4} {
		pool := ihtl.NewPool(workers)
		resident, err := ihtl.NewEngine(g, pool, ihtl.Params{HubsPerBlock: 64})
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		want, err := ihtl.PageRank(resident, pool, opt)
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		if err := resident.IHTL().SaveFileV2(path); err != nil {
			pool.Close()
			t.Fatal(err)
		}
		got, err := mappedPageRank(path, pool, opt)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rankHash(got) != rankHash(want) {
			diff := 0
			for v := range got {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					diff++
				}
			}
			t.Errorf("workers=%d: mapped ranks differ from resident in %d of %d entries", workers, diff, len(got))
		}
		if got, want := rankHash(got), goldenRankHashes[workers]; got != want {
			t.Errorf("workers=%d: mapped rank hash %#x, golden %#x", workers, got, want)
		}
	}
}

// mappedPageRank opens the engine file at path and runs PageRank over
// an engine stepping the mapping, returning ranks in original IDs.
func mappedPageRank(path string, pool *ihtl.Pool, opt ihtl.PageRankOptions) ([]float64, error) {
	ef, err := core.OpenEngineFile(path)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	ih := ef.IHTL()
	eng, err := core.NewEngine(ih, pool)
	if err != nil {
		return nil, err
	}
	res, err := analytics.RunPageRank(eng, ih.OutDegrees(), pool, opt)
	if err != nil {
		return nil, err
	}
	ranks := make([]float64, ih.NumV)
	ih.PermuteToOld(res.Ranks, ranks)
	return ranks, nil
}

// goldenSetup returns the golden graph and PageRank options, skipping
// off amd64: Go may fuse multiply-adds on other architectures, which
// changes the low-order bits the hashes pin.
func goldenSetup(t *testing.T) (*ihtl.Graph, ihtl.PageRankOptions) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	g, err := ihtl.GenerateRMAT(12, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g, ihtl.PageRankOptions{Tol: 1e-9}
}

// rankHash is the FNV-1a hash of a rank vector's bits.
func rankHash(ranks []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range ranks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		h.Write(b[:])
	}
	return h.Sum64()
}
