package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// openMapped saves ih with SaveFileV2, reopens it with OpenEngineFile
// and returns the opened graph, closed when the test ends.
func openMapped(t *testing.T, ih *IHTL) *IHTL {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ef.Close() })
	return ef.IHTL()
}

// engineOptsMatrix is every flipped-mode x sparse-kernel combination.
func engineOptsMatrix() []EngineOptions {
	var opts []EngineOptions
	for _, atomic := range []bool{false, true} {
		for _, k := range []SparseKernel{SparsePull, SparsePullDegree} {
			opts = append(opts, EngineOptions{AtomicFlipped: atomic, SparseKernel: k})
		}
	}
	return opts
}

// TestEncodingDifferential pins engines over the on-disk encoding — the
// graph opened from a mapped engine file — bit for bit against engines
// over the resident graph, for every flipped mode and sparse kernel, at
// worker counts {1, 3, GOMAXPROCS}, over repeated steps. The real-valued
// vector makes every sum depend on its accumulation order, so any
// regrouping of partial sums between the two paths shows; the atomic
// ablation's CAS order is schedule-dependent, so it runs on the signed
// integer vector, where addition is exact.
func TestEncodingDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		mapped := openMapped(t, ih)
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				for _, opt := range engineOptsMatrix() {
					src := randomVec(4321, g.NumV)
					if opt.AtomicFlipped {
						src = signedVec(99, g.NumV)
					}
					resident, err := NewEngineOpts(ih, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEngineOpts(mapped, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("atomic=%v sparse=%v", opt.AtomicFlipped, opt.SparseKernel)
					want := stepOldSpace(ih, resident, src)
					requireBitIdentical(t, label, want, stepOldSpace(mapped, e, src))
					// A second step proves the shared buffers were left
					// clean.
					requireBitIdentical(t, label+" (second step)", want, stepOldSpace(mapped, e, src))
				}
			})
		}
	}
}

// TestEncodingBatchDifferential is the K-lane mirror: StepBatch over
// the mapped graph equals StepBatch over the resident graph bit for
// bit, on real-valued lanes.
func TestEncodingBatchDifferential(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		mapped := openMapped(t, ih)
		for _, k := range []int{2, 5} {
			src := randomVec(uint64(1000+k), ih.NumV*k)
			want := make([]float64, ih.NumV*k)
			got := make([]float64, ih.NumV*k)
			for _, kernel := range []SparseKernel{SparsePull, SparsePullDegree} {
				resident, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: kernel})
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngineOpts(mapped, pool, EngineOptions{SparseKernel: kernel})
				if err != nil {
					t.Fatal(err)
				}
				resident.StepBatch(src, want, k)
				e.StepBatch(src, got, k)
				label := fmt.Sprintf("%s/k%d/%v", name, k, kernel)
				requireBitIdentical(t, label, want, got)
				e.StepBatch(src, got, k)
				requireBitIdentical(t, label+" (second)", want, got)
			}
		}
	}
}

// TestMappedStepAllocationFree pins the zero-allocation steady state of
// scalar and batched steps over a mapped graph.
func TestMappedStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(openMapped(t, ih), testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("mapped Step allocates %.1f objects per run, want 0", allocs)
	}

	const k = 4
	srcB := integerVec(17, g.NumV*k)
	dstB := make([]float64, g.NumV*k)
	e.StepBatch(srcB, dstB, k) // allocates the width's batch state
	for i := 0; i < 3; i++ {
		e.StepBatch(srcB, dstB, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(srcB, dstB, k) }); allocs != 0 {
		t.Errorf("mapped StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestFlatTopologyRoundTrip pins the flat adjacency of a web graph
// through SaveFileV2 -> OpenEngineFile unchanged, and, where the file
// is mapped on a little-endian host, every array of the opened graph
// aliasing the mapping rather than a heap copy.
func TestFlatTopologyRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	got := ef.IHTL()
	if len(got.Blocks) != len(ih.Blocks) {
		t.Fatalf("%d blocks, want %d", len(got.Blocks), len(ih.Blocks))
	}
	sameU32 := func(label string, want, have []uint32) {
		t.Helper()
		if len(have) != len(want) {
			t.Fatalf("%s: %d entries, want %d", label, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("%s[%d] = %d, want %d", label, i, have[i], want[i])
			}
		}
	}
	for b := range ih.Blocks {
		sameU32(fmt.Sprintf("block %d dsts", b), ih.Blocks[b].Dsts, got.Blocks[b].Dsts)
	}
	sameU32("sparse srcs", ih.Sparse.Srcs, got.Sparse.Srcs)

	if !ef.Mapped() || !hostLittle {
		t.Skip("file not mapped on this platform: sections are copies")
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(ef.data)))
	hi := lo + uintptr(len(ef.data))
	inMapping := func(label string, p unsafe.Pointer, n int) {
		t.Helper()
		if n == 0 {
			return
		}
		if a := uintptr(p); a < lo || a >= hi {
			t.Errorf("%s is not aliased into the mapping", label)
		}
	}
	inMapping("NewID", unsafe.Pointer(unsafe.SliceData(got.NewID)), len(got.NewID))
	inMapping("OldID", unsafe.Pointer(unsafe.SliceData(got.OldID)), len(got.OldID))
	for b := range got.Blocks {
		fb := &got.Blocks[b]
		inMapping(fmt.Sprintf("block %d index", b), unsafe.Pointer(unsafe.SliceData(fb.Index)), len(fb.Index))
		inMapping(fmt.Sprintf("block %d dsts", b), unsafe.Pointer(unsafe.SliceData(fb.Dsts)), len(fb.Dsts))
	}
	inMapping("sparse index", unsafe.Pointer(unsafe.SliceData(got.Sparse.Index)), len(got.Sparse.Index))
	inMapping("sparse srcs", unsafe.Pointer(unsafe.SliceData(got.Sparse.Srcs)), len(got.Sparse.Srcs))
}

// TestMappedOpenHeapBelowResident: opening a scale-14 R-MAT engine
// file memory-mapped must add less live Go heap than loading the same
// graph resident through LoadFile, because the mapping, not the heap,
// holds the relabeling and topology arrays.
func TestMappedOpenHeapBelowResident(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-14 graph")
	}
	v1, v4 := saveBothVersions(t, gen.DefaultRMAT(14, 16, 114))

	var loaded *IHTL
	resident := heapDelta(t, func() (err error) {
		loaded, err = LoadFile(v1)
		return err
	})
	runtime.KeepAlive(loaded)
	loaded = nil

	var ef *EngineFile
	mapped := heapDelta(t, func() (err error) {
		ef, err = OpenEngineFile(v4)
		return err
	})
	defer ef.Close()
	if !ef.Mapped() {
		t.Skip("engine file not memory-mapped on this platform")
	}
	t.Logf("heap added: resident LoadFile %d B, mapped open %d B", resident, mapped)
	if mapped >= resident {
		t.Errorf("mapped open added %d B of heap, not below the resident load's %d B", mapped, resident)
	}
}

// saveBothVersions builds an R-MAT graph and saves it as a version-1
// and a version-4 engine file, returning their paths. Nothing built is
// kept reachable, so heap readings afterwards see only the files'
// loaders.
func saveBothVersions(t *testing.T, cfg gen.RMATConfig) (v1, v4 string) {
	t.Helper()
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, v4 = filepath.Join(dir, "g.ihtl"), filepath.Join(dir, "g.ihtl2")
	if err := ih.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := ih.SaveFileV2(v4); err != nil {
		t.Fatal(err)
	}
	return v1, v4
}

// heapDelta runs fn between two GC-settled heap readings and returns
// how much live heap it added.
func heapDelta(t *testing.T, fn func() error) int64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}
