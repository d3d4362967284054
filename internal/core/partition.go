package core

import (
	"fmt"
	"slices"

	"ihtl/internal/graph"
)

// checkEdgePartition verifies the paper's partition invariant on a
// freshly built graph: every edge of g is traversed exactly once per
// Step, so the flipped blocks and the sparse block together hold each
// edge (u, v) of g exactly once, in new IDs. Flipped plus sparse edge
// counts must equal |E|, and each destination's in-neighbours gathered
// from the blocks must be g's in-neighbour list. It costs a full
// in-neighbour gather (4 bytes per edge), so BuildWithCtx runs it only
// in -tags=ihtlchecked builds.
func checkEdgePartition(g *graph.Graph, ih *IHTL) error {
	if got := ih.FlippedEdges() + ih.Sparse.NumEdges(); got != g.NumE {
		return fmt.Errorf("core: partition invariant: flipped + sparse edges = %d, |E| = %d", got, g.NumE)
	}
	// off[d+1] counts the edges into new ID d, then becomes the CSC
	// offsets of the gathered in-neighbour lists.
	off := make([]int64, ih.NumV+1)
	for b := range ih.Blocks {
		for _, d := range ih.Blocks[b].Dsts {
			off[d+1]++
		}
	}
	sp := &ih.Sparse
	for i := 0; i+1 < len(sp.Index); i++ {
		off[sp.DestLo+i+1] += sp.Index[i+1] - sp.Index[i]
	}
	for d := 0; d < ih.NumV; d++ {
		off[d+1] += off[d]
	}
	pos := slices.Clone(off[:ih.NumV])
	nbrs := make([]graph.VID, g.NumE)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		for s := 0; s+1 < len(fb.Index); s++ {
			for _, d := range fb.Dsts[fb.Index[s]:fb.Index[s+1]] {
				nbrs[pos[d]] = ih.OldID[s]
				pos[d]++
			}
		}
	}
	for i := 0; i+1 < len(sp.Index); i++ {
		d := sp.DestLo + i
		for _, s := range sp.Srcs[sp.Index[i]:sp.Index[i+1]] {
			nbrs[pos[d]] = ih.OldID[s]
			pos[d]++
		}
	}
	for d := 0; d < ih.NumV; d++ {
		got := nbrs[off[d]:off[d+1]]
		slices.Sort(got)
		if v := ih.OldID[d]; !slices.Equal(got, g.In(v)) {
			return fmt.Errorf("core: partition invariant: vertex %d (new %d) gathers %d in-edges from the blocks, the graph has %d or different ones",
				v, d, len(got), len(g.In(v)))
		}
	}
	return nil
}
