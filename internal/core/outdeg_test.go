package core

import (
	"path/filepath"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

// TestOutDegreesMatchesGraph pins OutDegrees against the original
// graph's out-degrees through the relabeling, for the built graph and
// a graph round-tripped through a mapped engine file (the serving
// daemon's load path).
func TestOutDegreesMatchesGraph(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, deg []int) {
		t.Helper()
		if len(deg) != g.NumV {
			t.Fatalf("OutDegrees length %d, want %d", len(deg), g.NumV)
		}
		for v := 0; v < g.NumV; v++ {
			nv := ih.NewID[v]
			if want := g.OutDegree(graph.VID(v)); deg[nv] != want {
				t.Fatalf("vertex %d (new %d): out-degree %d, want %d", v, nv, deg[nv], want)
			}
		}
	}

	t.Run("flat", func(t *testing.T) { check(t, ih.OutDegrees()) })

	t.Run("v2-engine-file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.ihtl2")
		if err := ih.SaveFileV2(path); err != nil {
			t.Fatal(err)
		}
		ef, err := OpenEngineFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ef.Close()
		check(t, ef.IHTL().OutDegrees())
	})
}
