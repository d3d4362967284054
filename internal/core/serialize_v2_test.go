package core

import (
	"bytes"
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

// TestV2RoundTripBitForBit pins the v2-decoded blocks bit-for-bit
// against their v1 (flat in-memory) source: header, relabeling, index
// arrays, and the materialised adjacency.
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
	if !got.EncodedOnly() {
		t.Fatal("v2 open materialised the flat topology eagerly")
	}
	if got.NumV != ih.NumV || got.NumE != ih.NumE || got.NumHubs != ih.NumHubs ||
		got.NumVWEH != ih.NumVWEH || got.NumFV != ih.NumFV ||
		got.HubsPerBlock != ih.HubsPerBlock || got.MinHubDegree != ih.MinHubDegree ||
		got.Sparse.DestLo != ih.Sparse.DestLo || len(got.Blocks) != len(ih.Blocks) {
		t.Fatal("header fields changed in v2 round trip")
	}
	for v := range ih.NewID {
		if got.NewID[v] != ih.NewID[v] || got.OldID[v] != ih.OldID[v] {
			t.Fatalf("relabeling changed at %d", v)
		}
	}
	got.EnsureFlatTopology()
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
// (encoded-only, possibly mapped) v2 graph and pins it against the
// in-memory flat source — auto encoding must resolve to varint.
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
	flat, err := NewEngineOpts(ih, testPool, EngineOptions{BlockEncoding: EncodingFlat})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngine(ef.IHTL(), testPool)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Encoding() != EncodingVarint {
		t.Fatalf("engine over v2 file resolved to %v, want varint", loaded.Encoding())
	}
	src := integerVec(3, ih.NumV)
	requireBitIdentical(t, "v2 engine", stepOldSpace(ih, flat, src), stepOldSpace(ef.IHTL(), loaded, src))
	if loaded.ResidentTopologyBytes() >= flat.ResidentTopologyBytes() {
		t.Errorf("v2 resident topology %d B not below flat %d B",
			loaded.ResidentTopologyBytes(), flat.ResidentTopologyBytes())
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

// TestLoadFileReadsV2 pins the stream decoder's v2 path: LoadFile must
// accept both versions.
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
// error, never panic.
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
			// A flipped byte inside a gap stream can decode to another
			// valid graph; it must still pass full validation, so an
			// engine over it is memory-safe. Just close it.
			ef.Close()
		}
	}
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
	dir := t.TempDir()
	v2 := filepath.Join(dir, "g.ihtl2")
	if err := buildV2TestGraph(t).SaveFileV2(v2); err != nil {
		t.Fatal(err)
	}
	// Positive control: the mapping check sees a mapped v2 file until
	// Close, so its silence below means something.
	ef, err := OpenEngineFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if ef.Mapped() && !mappedInProcess(t, v2) {
		t.Fatal("mapping check cannot see an open v2 mapping")
	}
	ef.Close()
	if mappedInProcess(t, v2) {
		t.Fatal("v2 file still mapped after Close")
	}

	v3 := filepath.Join(dir, "g.ihtl3")
	if err := os.WriteFile(v3, v3Header(), 0o644); err != nil {
		t.Fatal(err)
	}
	wantUnsupported := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
			t.Fatalf("%s: err = %v, want an unsupported version 3 error", name, err)
		}
	}
	ef, err = OpenEngineFile(v3)
	if ef != nil {
		t.Fatal("OpenEngineFile returned a file for version 3")
	}
	wantUnsupported("OpenEngineFile", err)
	_, err = ReadIHTL(bytes.NewReader(v3Header()))
	wantUnsupported("ReadIHTL", err)
	_, err = LoadFile(v3)
	wantUnsupported("LoadFile", err)
	if mappedInProcess(t, v3) {
		t.Fatal("rejected version-3 file left mapped")
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
