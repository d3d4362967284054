package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

// FuzzReadIHTL guards the iHTL binary decoder: arbitrary bytes must
// either fail cleanly or decode into a structurally sound iHTL graph
// (inverse relabeling arrays, in-range block destinations, edge
// conservation — all checked inside ReadIHTL).
func FuzzReadIHTL(f *testing.F) {
	ih, err := Build(graph.PaperExample(), Params{HubsPerBlock: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0xA5
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIHTL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.FlippedEdges()+got.Sparse.NumEdges() != got.NumE {
			t.Fatal("decoder accepted inconsistent edge counts")
		}
	})
}

// FuzzParseV2 guards the mapped engine-file parser, the path
// OpenEngineFile maps untrusted bytes through. Input is copied into an
// 8-byte-aligned buffer, as readV4Resident does, so the parser's
// zero-copy aliasing runs as it does on a mapping. Arbitrary bytes must
// either be rejected or yield a graph the engine kernels can step: they
// index through unchecked accessors, so an accepted graph that breaks a
// structural invariant would read or write out of bounds. Every
// accepted graph is therefore checked against those invariants and
// stepped by the buffered and the atomic flipped pipeline, bit-for-bit
// against a reference sum over its own edges. The seeds are the
// version-4 files of v2FuzzGraphs plus the headers of the two retired
// versions.
func FuzzParseV2(f *testing.F) {
	for _, ih := range v2FuzzGraphs(f) {
		var buf bytes.Buffer
		if _, err := ih.WriteToV2(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(v3Header())
	f.Add([]byte{})
	f.Add(retiredHeader(ihtlVersionVarint))

	f.Fuzz(func(t *testing.T, data []byte) {
		ih, err := parseV2(alignedCopy(data))
		if err != nil {
			return
		}
		checkEngineInvariants(t, ih)
	})
}

// v2FuzzGraphs returns the seed graphs of FuzzParseV2: the paper's
// example and a 300-page web graph.
func v2FuzzGraphs(tb testing.TB) []*IHTL {
	paper, err := Build(graph.PaperExample(), Params{HubsPerBlock: 2})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := gen.Web(gen.DefaultWeb(300, 3))
	if err != nil {
		tb.Fatal(err)
	}
	web, err := Build(g, Params{HubsPerBlock: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return []*IHTL{paper, web}
}

// v3Header is the start of a version-3 (sharded container) file, a
// format this package no longer reads.
func v3Header() []byte { return retiredHeader(3) }

// retiredHeader is the start of a file in a version this package no
// longer reads: magic, the version, then filler bytes where that
// version's sections would begin.
func retiredHeader(version uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, ihtlMagic)
	b = binary.LittleEndian.AppendUint32(b, version)
	return append(b, bytes.Repeat([]byte{0x5A}, 116)...)
}

// alignedCopy copies data into a buffer backed by []int64, the way
// readV4Resident and readFileAligned back a mapped-file range.
func alignedCopy(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	words := make([]int64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
	copy(buf, data)
	return buf
}

// checkEngineInvariants asserts the shape the engine kernels assume of
// a graph, then steps it. The checks are written out here rather than
// shared with the parser so that a gap in the parser's validation
// shows up as a failure instead of being mirrored.
func checkEngineInvariants(t *testing.T, ih *IHTL) {
	t.Helper()
	n := ih.NumV
	if ih.NumHubs+ih.NumVWEH+ih.NumFV != n || len(ih.NewID) != n || len(ih.OldID) != n {
		t.Fatalf("class sizes %d+%d+%d or relabeling lengths %d/%d disagree with NumV %d",
			ih.NumHubs, ih.NumVWEH, ih.NumFV, len(ih.NewID), len(ih.OldID), n)
	}
	for v, nv := range ih.NewID {
		if int(nv) >= n || int(ih.OldID[nv]) != v {
			t.Fatalf("relabeling is not a permutation at %d", v)
		}
	}
	checkIndex := func(label string, idx []int64, rows int) {
		if len(idx) != rows+1 || idx[0] != 0 {
			t.Fatalf("%s: index of length %d (want %d) starting at %v", label, len(idx), rows+1, idx)
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] < idx[i-1] {
				t.Fatalf("%s: index decreases at row %d", label, i-1)
			}
		}
	}
	hub := 0
	var edges int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.HubLo != hub || fb.HubHi < fb.HubLo {
			t.Fatalf("block %d hub range [%d,%d) does not continue the tiling at %d", b, fb.HubLo, fb.HubHi, hub)
		}
		hub = fb.HubHi
		checkIndex(fmt.Sprintf("block %d", b), fb.Index, ih.NumPushSources())
		if int64(len(fb.Dsts)) != fb.NumEdges() {
			t.Fatalf("block %d holds %d destinations for %d indexed edges", b, len(fb.Dsts), fb.NumEdges())
		}
		for _, d := range fb.Dsts {
			if int(d) < fb.HubLo || int(d) >= fb.HubHi {
				t.Fatalf("block %d destination %d outside [%d,%d)", b, d, fb.HubLo, fb.HubHi)
			}
		}
		edges += fb.NumEdges()
	}
	if hub != ih.NumHubs {
		t.Fatalf("blocks tile hubs up to %d, NumHubs is %d", hub, ih.NumHubs)
	}
	sp := &ih.Sparse
	if sp.DestLo != ih.NumHubs {
		t.Fatalf("sparse block starts at %d, NumHubs is %d", sp.DestLo, ih.NumHubs)
	}
	checkIndex("sparse block", sp.Index, n-sp.DestLo)
	if int64(len(sp.Srcs)) != sp.NumEdges() {
		t.Fatalf("sparse block holds %d sources for %d indexed edges", len(sp.Srcs), sp.NumEdges())
	}
	for _, s := range sp.Srcs {
		if int(s) >= n {
			t.Fatalf("sparse source %d outside [0,%d)", s, n)
		}
	}
	if edges += sp.NumEdges(); edges != ih.NumE {
		t.Fatalf("blocks hold %d edges, NumE is %d", edges, ih.NumE)
	}

	// Distinct integer sources make every sum exact, so both flipped
	// pipelines must reproduce the reference bit for bit.
	src := make([]float64, n)
	for v := range src {
		src[v] = float64(v + 1)
	}
	want := make([]float64, n)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		for s := 0; s+1 < len(fb.Index); s++ {
			for _, d := range fb.Dsts[fb.Index[s]:fb.Index[s+1]] {
				want[d] += src[s]
			}
		}
	}
	for i := 0; i+1 < len(sp.Index); i++ {
		for _, s := range sp.Srcs[sp.Index[i]:sp.Index[i+1]] {
			want[sp.DestLo+i] += src[s]
		}
	}
	for _, opt := range []EngineOptions{{}, {AtomicFlipped: true, SparseKernel: SparsePull}} {
		e, err := NewEngineOpts(ih, testPool, opt)
		if err != nil {
			t.Fatalf("%+v engine over an accepted graph: %v", opt, err)
		}
		got := make([]float64, n)
		e.Step(src, got)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%+v engine: vertex %d = %v, reference %v", opt, v, got[v], want[v])
			}
		}
	}
}
