package core

import (
	"fmt"
	"runtime"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// encOptsMatrix is every flipped-mode x sparse-kernel combination the
// varint encoding must pin bit-for-bit against the flat reference.
func encOptsMatrix() []EngineOptions {
	var opts []EngineOptions
	for _, pipeline := range []EngineOptions{{}, {AtomicFlipped: true}} {
		for _, k := range []SparseKernel{SparsePull, SparsePullDegree} {
			o := pipeline
			o.SparseKernel = k
			o.BlockEncoding = EncodingVarint
			opts = append(opts, o)
		}
	}
	return opts
}

func encLabel(o EngineOptions) string {
	return fmt.Sprintf("atomic=%v sparse=%v", o.AtomicFlipped, o.SparseKernel)
}

// TestEncodingDifferential pins BlockEncoding varint bit-for-bit equal
// to the flat reference across the buffered and atomic flipped modes,
// both sparse kernels, worker counts {1, 3, GOMAXPROCS}, and repeated
// steps, with both non-negative and signed/-0.0 sources.
func TestEncodingDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		srcs := map[string][]float64{
			"int":    integerVec(4321, g.NumV),
			"signed": signedVec(99, g.NumV),
		}
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				flat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
				if err != nil {
					t.Fatal(err)
				}
				for vecName, src := range srcs {
					want := stepOldSpace(ih, flat, src)
					for _, opt := range encOptsMatrix() {
						e, err := NewEngineOpts(ih, pool, opt)
						if err != nil {
							t.Fatal(err)
						}
						if e.Encoding() != EncodingVarint {
							t.Fatalf("engine resolved to %v, want varint", e.Encoding())
						}
						label := vecName + "/" + encLabel(opt)
						requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
						// A second step proves the decode scratch and the
						// shared buffers were left clean.
						requireBitIdentical(t, label+" (second step)", want, stepOldSpace(ih, e, src))
					}
				}
			})
		}
	}
}

// TestEncodingBatchDifferential is the K-lane mirror: StepBatch under
// varint equals StepBatch under flat for every flipped mode and kernel.
func TestEncodingBatchDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(3)
		defer pool.Close()
		for _, k := range []int{2, 5} {
			src := make([]float64, ih.NumV*k)
			for j := 0; j < k; j++ {
				lane := signedVec(uint64(1000+j), ih.NumV)
				for v := 0; v < ih.NumV; v++ {
					src[v*k+j] = lane[v]
				}
			}
			flat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, ih.NumV*k)
			flat.StepBatch(src, want, k)
			got := make([]float64, ih.NumV*k)
			for _, opt := range encOptsMatrix() {
				e, err := NewEngineOpts(ih, pool, opt)
				if err != nil {
					t.Fatal(err)
				}
				e.StepBatch(src, got, k)
				requireBitIdentical(t, fmt.Sprintf("%s/k%d/%s", name, k, encLabel(opt)), want, got)
				e.StepBatch(src, got, k)
				requireBitIdentical(t, fmt.Sprintf("%s/k%d/%s (second)", name, k, encLabel(opt)), want, got)
			}
		}
	}
}

// TestEncodedOnlyAutoResolution drops the flat topology and checks the
// auto encoding resolves to varint over the encoded-only graph — and
// that an explicitly flat engine re-materialises the flat arrays and
// still matches.
func TestEncodedOnlyAutoResolution(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	flat, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Encoding() != EncodingFlat {
		t.Fatalf("auto over flat graph resolved to %v", flat.Encoding())
	}
	src := integerVec(5, g.NumV)
	want := stepOldSpace(ih, flat, src)

	ih.EnsureEncoded()
	ih.DropFlatTopology()
	if !ih.EncodedOnly() {
		t.Fatal("EncodedOnly false after DropFlatTopology")
	}
	auto, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Encoding() != EncodingVarint {
		t.Fatalf("auto over encoded-only graph resolved to %v", auto.Encoding())
	}
	requireBitIdentical(t, "auto varint", want, stepOldSpace(ih, auto, src))

	// Forcing flat over the encoded-only graph must re-materialise.
	reflat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
	if err != nil {
		t.Fatal(err)
	}
	if ih.EncodedOnly() {
		t.Fatal("flat engine left the graph encoded-only")
	}
	requireBitIdentical(t, "re-materialised flat", want, stepOldSpace(ih, reflat, src))
}

// TestFlatTopologyRoundTrip pins EnsureEncoded -> DropFlatTopology ->
// EnsureFlatTopology as the identity on the adjacency arrays.
func TestFlatTopologyRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wantDsts [][]uint32
	for b := range ih.Blocks {
		wantDsts = append(wantDsts, append([]uint32(nil), ih.Blocks[b].Dsts...))
	}
	wantSrcs := append([]uint32(nil), ih.Sparse.Srcs...)

	ih.EnsureEncoded()
	ih.DropFlatTopology()
	ih.EnsureFlatTopology()
	for b := range ih.Blocks {
		if len(ih.Blocks[b].Dsts) != len(wantDsts[b]) {
			t.Fatalf("block %d: %d dsts, want %d", b, len(ih.Blocks[b].Dsts), len(wantDsts[b]))
		}
		for i := range wantDsts[b] {
			if ih.Blocks[b].Dsts[i] != wantDsts[b][i] {
				t.Fatalf("block %d dst %d: got %d want %d", b, i, ih.Blocks[b].Dsts[i], wantDsts[b][i])
			}
		}
	}
	if len(ih.Sparse.Srcs) != len(wantSrcs) {
		t.Fatalf("sparse: %d srcs, want %d", len(ih.Sparse.Srcs), len(wantSrcs))
	}
	for i := range wantSrcs {
		if ih.Sparse.Srcs[i] != wantSrcs[i] {
			t.Fatalf("sparse src %d: got %d want %d", i, ih.Sparse.Srcs[i], wantSrcs[i])
		}
	}
}

// TestVarintStepAllocationFree pins the varint decode loop's
// zero-allocation steady state for scalar and batched steps.
func TestVarintStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOpts(ih, testPool, EngineOptions{BlockEncoding: EncodingVarint})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("varint Step allocates %.1f objects per run, want 0", allocs)
	}

	const k = 4
	srcB := integerVec(17, g.NumV*k)
	dstB := make([]float64, g.NumV*k)
	e.StepBatch(srcB, dstB, k) // allocates the width's batch state
	for i := 0; i < 3; i++ {
		e.StepBatch(srcB, dstB, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(srcB, dstB, k) }); allocs != 0 {
		t.Errorf("varint StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEncodingParseAndString pins the flag surface.
func TestEncodingParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want BlockEncoding
	}{{"auto", EncodingAuto}, {"", EncodingAuto}, {"flat", EncodingFlat}, {"varint", EncodingVarint}} {
		got, err := ParseBlockEncoding(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBlockEncoding(%q) = %v, %v", tc.s, got, err)
		}
	}
	if _, err := ParseBlockEncoding("gzip"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	if EncodingVarint.String() != "varint" || EncodingFlat.String() != "flat" || EncodingAuto.String() != "auto" {
		t.Fatal("BlockEncoding String mismatch")
	}
}
