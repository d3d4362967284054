package core

import (
	"testing"

	"ihtl/internal/graph"
)

// TestEdgePartitionCheck: checkEdgePartition accepts every built graph
// and refuses one edge moved to another destination, in a flipped
// block and in the sparse block — the corruptions an edge-count check
// alone cannot see.
func TestEdgePartitionCheck(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEdgePartition(g, ih); err != nil {
			t.Fatalf("%s: built graph refused: %v", name, err)
		}
	}

	g := diffGraphs(t)["web"]
	build := func() *IHTL {
		t.Helper()
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		return ih
	}
	ih := build()
	fb := &ih.Blocks[0]
	if fb.HubHi-fb.HubLo < 2 || len(fb.Dsts) == 0 {
		t.Fatal("fixture needs a flipped block of two hubs with edges")
	}
	fb.Dsts[0] = graph.VID(fb.HubLo + (int(fb.Dsts[0])-fb.HubLo+1)%(fb.HubHi-fb.HubLo))
	if err := checkEdgePartition(g, ih); err == nil {
		t.Error("flipped edge moved to another hub accepted")
	}

	ih = build()
	srcs := ih.Sparse.Srcs
	srcs[0] = (srcs[0] + 1) % graph.VID(ih.NumV)
	if err := checkEdgePartition(g, ih); err == nil {
		t.Error("sparse edge moved to another source accepted")
	}
}
