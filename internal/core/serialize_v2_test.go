package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ihtl/internal/gen"
)

func buildV2TestGraph(t *testing.T) *IHTL {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	return ih
}

// TestV2RoundTripBitForBit pins the blocks of a graph opened from a
// SaveFileV2 file bit-for-bit against their in-memory source: header,
// relabeling, index arrays and adjacency.
func TestV2RoundTripBitForBit(t *testing.T) {
	ih := buildV2TestGraph(t)
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
	if got.NumV != ih.NumV || got.NumE != ih.NumE || got.NumHubs != ih.NumHubs ||
		got.NumVWEH != ih.NumVWEH || got.NumFV != ih.NumFV ||
		got.HubsPerBlock != ih.HubsPerBlock || got.MinHubDegree != ih.MinHubDegree ||
		got.Sparse.DestLo != ih.Sparse.DestLo || len(got.Blocks) != len(ih.Blocks) {
		t.Fatal("header fields changed in the engine-file round trip")
	}
	for v := range ih.NewID {
		if got.NewID[v] != ih.NewID[v] || got.OldID[v] != ih.OldID[v] {
			t.Fatalf("relabeling changed at %d", v)
		}
	}
	for i := range ih.Blocks {
		a, b := &ih.Blocks[i], &got.Blocks[i]
		if a.HubLo != b.HubLo || a.HubHi != b.HubHi || a.Sources != b.Sources {
			t.Fatalf("block %d header changed", i)
		}
		if len(a.Index) != len(b.Index) || len(a.Dsts) != len(b.Dsts) {
			t.Fatalf("block %d shape changed", i)
		}
		for j := range a.Index {
			if a.Index[j] != b.Index[j] {
				t.Fatalf("block %d index changed at %d", i, j)
			}
		}
		for j := range a.Dsts {
			if a.Dsts[j] != b.Dsts[j] {
				t.Fatalf("block %d dsts changed at %d", i, j)
			}
		}
	}
	if len(got.Sparse.Srcs) != len(ih.Sparse.Srcs) {
		t.Fatal("sparse shape changed")
	}
	for j := range ih.Sparse.Srcs {
		if got.Sparse.Srcs[j] != ih.Sparse.Srcs[j] {
			t.Fatalf("sparse srcs changed at %d", j)
		}
	}
	for j := range ih.Sparse.Index {
		if got.Sparse.Index[j] != ih.Sparse.Index[j] {
			t.Fatalf("sparse index changed at %d", j)
		}
	}
}

// TestV2EngineDifferential steps an engine straight over the opened
// (mapped where the platform allows) graph and pins it bit for bit
// against an engine over the in-memory source, on a real-valued vector
// whose sums depend on the accumulation order. Both engines run the
// same kernels over the same topology, so their footprints agree too.
func TestV2EngineDifferential(t *testing.T) {
	ih := buildV2TestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	resident, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngine(ef.IHTL(), testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(3, ih.NumV)
	requireBitIdentical(t, "mapped engine", stepOldSpace(ih, resident, src), stepOldSpace(ef.IHTL(), loaded, src))
	if loaded.ResidentTopologyBytes() != resident.ResidentTopologyBytes() || loaded.BytesPerStep() != resident.BytesPerStep() {
		t.Errorf("mapped footprint %d/%d B differs from resident %d/%d B",
			loaded.ResidentTopologyBytes(), loaded.BytesPerStep(), resident.ResidentTopologyBytes(), resident.BytesPerStep())
	}
}

// TestV2DegreeBuckets pins EnsureDegreeBuckets over both an opened v2
// graph and a v1 file loaded through OpenEngineFile (the v1-acceptance
// regression): the derived buckets must match the flat source's.
func TestV2DegreeBuckets(t *testing.T) {
	ih := buildV2TestGraph(t)
	ih.Sparse.EnsureDegreeBuckets()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "g.ihtl")
	v2 := filepath.Join(dir, "g.ihtl2")
	if err := ih.SaveFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := ih.SaveFileV2(v2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		path string
	}{{"v1", v1}, {"v2", v2}} {
		ef, err := OpenEngineFile(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := ef.IHTL()
		got.Sparse.EnsureDegreeBuckets()
		if got.Sparse.HeavyDeg != ih.Sparse.HeavyDeg || len(got.Sparse.Heavy) != len(ih.Sparse.Heavy) {
			t.Fatalf("%s: degree buckets differ (deg %d/%d, heavy %d/%d)", tc.name,
				got.Sparse.HeavyDeg, ih.Sparse.HeavyDeg, len(got.Sparse.Heavy), len(ih.Sparse.Heavy))
		}
		for i := range ih.Sparse.Heavy {
			if got.Sparse.Heavy[i] != ih.Sparse.Heavy[i] {
				t.Fatalf("%s: heavy row %d differs", tc.name, i)
			}
		}
		ef.Close()
	}
}

// TestLoadFileReadsV2 pins the stream decoder's path for SaveFileV2
// output: LoadFile must accept it as well as version 1.
func TestLoadFileReadsV2(t *testing.T) {
	ih := buildV2TestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumE != ih.NumE || got.FlippedEdges() != ih.FlippedEdges() {
		t.Fatal("v2 LoadFile changed edge counts")
	}
}

// TestV2RejectsCorruption fuzz-adjacent hostile-input coverage for the
// mapped parser: truncations and bit flips across the whole file must
// error, never panic, and an adjacency entry the unchecked kernels
// would follow out of bounds — a flipped destination outside its
// block's hub range, a sparse source >= NumV — must be refused.
func TestV2RejectsCorruption(t *testing.T) {
	ih := buildV2TestGraph(t)
	var buf bytes.Buffer
	if _, err := ih.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	try := func(name string, b []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ef, err := OpenEngineFile(path)
		if err == nil {
			// A flipped byte inside an adjacency section can yield
			// another valid graph; it passed full validation, so an
			// engine over it is memory-safe. Just close it.
			ef.Close()
		}
	}
	mustReject := func(name string, mut func(ih *IHTL)) {
		t.Helper()
		bad := buildV2TestGraph(t)
		mut(bad)
		path := filepath.Join(dir, name)
		if err := bad.SaveFileV2(path); err != nil {
			t.Fatal(err)
		}
		if ef, err := OpenEngineFile(path); err == nil {
			ef.Close()
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: err = %v, want an out-of-range error", name, err)
		}
	}
	mustReject("dst-outside-block", func(ih *IHTL) {
		// Into the previous block's hubs: still inside the hub buffer,
		// so only the per-block range check can catch it.
		fb := &ih.Blocks[len(ih.Blocks)-1]
		if fb.HubLo == 0 || len(fb.Dsts) == 0 {
			t.Fatal("fixture needs a non-empty block after the first")
		}
		fb.Dsts[0] = uint32(fb.HubLo - 1)
	})
	mustReject("sparse-src-out-of-range", func(ih *IHTL) {
		ih.Sparse.Srcs[len(ih.Sparse.Srcs)/2] = uint32(ih.NumV)
	})
	for _, cut := range []int{13, 64, 128, len(data) / 2, len(data) - 1} {
		path := filepath.Join(dir, "trunc")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenEngineFile(path); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for off := 12; off < len(data); off += 31 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xA5
		try("flip", bad)
	}
}

// TestV3FileRejected: version 3 was the sharded multi-graph container,
// whose reader is gone. Every entry point must refuse such a file with
// an error naming the version, without panicking and without leaving
// the file mapped.
func TestV3FileRejected(t *testing.T) {
	requireVersionRejected(t, 3, "")
}

// TestVarintFileRejected: version 2 was the chunked-varint layout whose
// engines decoded inside the step. It is refused like version 3, with
// a hint naming the rebuild command.
func TestVarintFileRejected(t *testing.T) {
	requireVersionRejected(t, ihtlVersionVarint, "ihtlconvert -to ihtlv2")
}

// requireVersionRejected writes a file in a retired version and checks
// that OpenEngineFile, ReadIHTL and LoadFile all refuse it with an
// error naming the version (and hint, when given), and that nothing of
// it stays mapped. A positive control first shows that the mapping
// check sees an open version-4 mapping.
func requireVersionRejected(t *testing.T, version uint32, hint string) {
	t.Helper()
	dir := t.TempDir()
	v4 := filepath.Join(dir, "g.ihtl2")
	if err := buildV2TestGraph(t).SaveFileV2(v4); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(v4)
	if err != nil {
		t.Fatal(err)
	}
	if ef.Mapped() && !mappedInProcess(t, v4) {
		t.Fatal("mapping check cannot see an open engine-file mapping")
	}
	ef.Close()
	if mappedInProcess(t, v4) {
		t.Fatal("engine file still mapped after Close")
	}

	old := filepath.Join(dir, fmt.Sprintf("g.v%d", version))
	hdr := retiredHeader(version)
	if err := os.WriteFile(old, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("unsupported version %d", version)
	wantUnsupported := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), hint) {
			t.Fatalf("%s: err = %v, want %q with %q", name, err, want, hint)
		}
	}
	ef, err = OpenEngineFile(old)
	if ef != nil {
		t.Fatalf("OpenEngineFile returned a file for version %d", version)
	}
	wantUnsupported("OpenEngineFile", err)
	_, err = ReadIHTL(bytes.NewReader(hdr))
	wantUnsupported("ReadIHTL", err)
	_, err = LoadFile(old)
	wantUnsupported("LoadFile", err)
	if mappedInProcess(t, old) {
		t.Fatalf("rejected version-%d file left mapped", version)
	}
}

// mappedInProcess reports whether path appears among this process's
// memory mappings; false (with a log line) where the kernel does not
// expose them.
func mappedInProcess(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Logf("mapping check unavailable: %v", err)
		return false
	}
	return bytes.Contains(maps, []byte(path))
}
