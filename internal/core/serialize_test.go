package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"ihtl/internal/gen"
)

func TestIHTLSerializeRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ih.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIHTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumV != ih.NumV || got.NumE != ih.NumE || got.NumHubs != ih.NumHubs ||
		got.NumVWEH != ih.NumVWEH || got.NumFV != ih.NumFV || len(got.Blocks) != len(ih.Blocks) {
		t.Fatal("header fields changed in round trip")
	}
	for i := range ih.Blocks {
		a, b := &ih.Blocks[i], &got.Blocks[i]
		if a.HubLo != b.HubLo || a.HubHi != b.HubHi || a.Sources != b.Sources {
			t.Fatalf("block %d header changed", i)
		}
		for j := range a.Index {
			if a.Index[j] != b.Index[j] {
				t.Fatalf("block %d index changed", i)
			}
		}
		for j := range a.Dsts {
			if a.Dsts[j] != b.Dsts[j] {
				t.Fatalf("block %d dsts changed", i)
			}
		}
	}
	// The loaded engine must produce the same results.
	eOrig, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	eLoad, err := NewEngine(got, testPool)
	if err != nil {
		t.Fatal(err)
	}
	// Integer-valued sources keep the sums exact, so the comparison is
	// independent of the dynamic task→worker schedule of each run.
	src := integerVec(3, g.NumV)
	d1 := make([]float64, g.NumV)
	d2 := make([]float64, g.NumV)
	eOrig.Step(src, d1)
	eLoad.Step(src, d2)
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("loaded engine differs at %d", v)
		}
	}
}

func TestIHTLFileRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.ihtlbin")
	if err := ih.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FlippedEdges() != ih.FlippedEdges() {
		t.Fatal("flipped edges changed")
	}
}

func TestReadIHTLRejectsCorruption(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadIHTL(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	for _, cut := range []int{8, 40, len(data) / 2, len(data) - 1} {
		if _, err := ReadIHTL(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupt a relabeling byte: NewID/OldID inverse check must fire.
	bad := append([]byte(nil), data...)
	bad[60] ^= 0xFF
	if _, err := ReadIHTL(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt relabeling accepted")
	}
}

// TestReadersRejectBadShape: both file readers refuse graphs whose
// sections are each well formed but whose layout breaks what the
// engine kernels assume (checkShape), instead of handing the unchecked
// kernels a graph they would step out of bounds.
func TestReadersRejectBadShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(ih *IHTL)
	}{
		{"sparse block misplaced", func(ih *IHTL) { ih.Sparse.DestLo++ }},
		{"blocks out of order", func(ih *IHTL) { ih.Blocks[0], ih.Blocks[1] = ih.Blocks[1], ih.Blocks[0] }},
		{"index decreases", func(ih *IHTL) {
			idx := ih.Blocks[0].Index
			idx[1] = idx[len(idx)-1] + 1
		}},
	} {
		ih := buildV2TestGraph(t)
		if len(ih.Blocks) < 2 || len(ih.Blocks[0].Index) < 3 {
			t.Fatal("fixture needs two blocks of at least two rows")
		}
		tc.mut(ih)
		var v1, v2 bytes.Buffer
		if _, err := ih.WriteTo(&v1); err != nil {
			t.Fatal(err)
		}
		if _, err := ih.WriteToV2(&v2); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIHTL(&v1); err == nil {
			t.Errorf("%s: v1 reader accepted the graph", tc.name)
		}
		if _, err := ReadIHTL(&v2); err == nil {
			t.Errorf("%s: v2 reader accepted the graph", tc.name)
		}
	}
}
