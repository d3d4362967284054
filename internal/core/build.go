package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// FlippedBlock holds the incoming edges of one block of B in-hubs in
// push (row-major, CSR-by-source) form. Sources are the vertices with
// new IDs [0, NumHubs+NumVWEH) — fringe vertices have no edges to
// hubs and are excluded, which both shrinks the topology and avoids
// streaming their vertex data (§3.1).
type FlippedBlock struct {
	// HubLo and HubHi bound the block's hub range in new IDs.
	HubLo, HubHi int
	// Index has NumPushSources+1 offsets into Dsts; the edges of
	// source s are Dsts[Index[s]:Index[s+1]].
	Index []int64
	// Dsts are hub destinations in new IDs (all in [HubLo, HubHi)),
	// sorted ascending within each source's run: the push kernels
	// accumulate per destination, so within-row order changes no
	// result bit. A graph opened from an engine file aliases Index and
	// Dsts into the mapping.
	Dsts []graph.VID
	// Sources is |FVᵢ|: the number of sources with at least one edge
	// into this block (the §3.3 block-admission statistic).
	Sources int
}

// NumEdges returns the edge count of the block.
func (b *FlippedBlock) NumEdges() int64 {
	if n := len(b.Index); n > 1 {
		return b.Index[n-1]
	}
	return 0
}

// SparseBlock holds the incoming edges of all non-hub vertices in
// pull (column-major, CSC-by-destination) form, over new IDs.
type SparseBlock struct {
	// DestLo is the first destination new ID (== NumHubs).
	DestLo int
	// Index has NumV-DestLo+1 offsets into Srcs.
	Index []int64
	// Srcs are source new IDs grouped by destination, sorted.
	Srcs []graph.VID

	// HeavyDeg and Heavy are the degree buckets of the degree-aware
	// sparse schedule (SparsePullDegree): rows (destinations, relative
	// to DestLo) whose in-degree reaches HeavyDeg are listed ascending
	// in Heavy and claimed over edge-balanced list parts, while the
	// remaining short rows batch into coarse chunks. Both are derived
	// purely from Index — the build fills them as a counting pass
	// alongside the CSC construction, and deserialised graphs (whose
	// format predates the fields) re-derive them lazily via
	// EnsureDegreeBuckets. HeavyDeg == 0 means "not yet derived".
	HeavyDeg int64
	Heavy    []int32
}

// heavyDegThreshold picks the degree-bucket boundary from the block's
// shape: 8x the mean row degree, floored at 64 so mostly-uniform
// blocks keep an empty heavy list. Deterministic in Index alone, so a
// lazy re-derivation after deserialisation reproduces the build's
// buckets exactly.
func (s *SparseBlock) heavyDegThreshold() int64 {
	n := int64(len(s.Index)) - 1
	if n <= 0 {
		return 64
	}
	mean := s.Index[n] / n
	if t := 8 * mean; t > 64 {
		return t
	}
	return 64
}

// EnsureDegreeBuckets derives HeavyDeg and Heavy from Index when they
// are absent (graphs deserialised from the versioned binary format,
// which does not store them). Built graphs already carry them. The
// derivation is deterministic, so engines constructed before and after
// a serialisation round-trip schedule identically.
//
// NOT safe for concurrent callers: this is the unguarded primitive the
// build's single-threaded passes call on a not-yet-published block.
// Anything holding a full *IHTL (engine construction, concurrent
// callers) must go through (*IHTL).EnsureDegreeBuckets, which takes
// the graph's lazy-derivation lock.
func (s *SparseBlock) EnsureDegreeBuckets() {
	if s.HeavyDeg != 0 {
		return
	}
	s.HeavyDeg = s.heavyDegThreshold()
	n := len(s.Index) - 1
	s.Heavy = s.Heavy[:0]
	for i := 0; i < n; i++ {
		if s.Index[i+1]-s.Index[i] >= s.HeavyDeg {
			s.Heavy = append(s.Heavy, int32(i))
		}
	}
}

// NumEdges returns the edge count of the sparse block.
func (s *SparseBlock) NumEdges() int64 {
	if n := len(s.Index); n > 1 {
		return s.Index[n-1]
	}
	return 0
}

// IHTL is the iHTL graph (Figure 3): the relabeling arrays, the
// flipped blocks, and the sparse block.
type IHTL struct {
	// NumV, NumE mirror the original graph.
	NumV int
	NumE int64
	// NumHubs, NumVWEH, NumFV partition the vertices; new IDs are
	// assigned in that order (hubs first — Figure 4).
	NumHubs, NumVWEH, NumFV int
	// HubsPerBlock is the resolved B.
	HubsPerBlock int
	// NewID maps original vertex IDs to iHTL IDs; OldID is the
	// inverse (OldID is the "relabeling array" of Figure 4).
	NewID, OldID []graph.VID
	// Blocks are the flipped blocks, in hub-rank order.
	Blocks []FlippedBlock
	// Sparse is the pull-direction remainder.
	Sparse SparseBlock
	// MinHubDegree is the smallest original in-degree among selected
	// hubs (Table 5).
	MinHubDegree int

	params     Params
	buildStats BuildBreakdown

	// lazyMu serialises the lazy, idempotent derivation of the
	// degree buckets ((*IHTL).EnsureDegreeBuckets), so several engines
	// may be constructed over one IHTL from concurrent goroutines. The
	// derived fields are immutable once present; readers are ordered
	// after their own constructor's locked Ensure call, so the hot
	// paths stay lock-free.
	lazyMu sync.Mutex
}

// EnsureDegreeBuckets derives the sparse block's degree buckets under
// the graph's lazy-derivation lock, making concurrent engine
// construction over one IHTL safe. See SparseBlock.EnsureDegreeBuckets
// for the unguarded primitive the build's single-threaded passes use.
func (ih *IHTL) EnsureDegreeBuckets() {
	ih.lazyMu.Lock()
	ih.Sparse.EnsureDegreeBuckets()
	ih.lazyMu.Unlock()
}

// NumPushSources returns the number of vertices traversed during push
// (hubs + VWEH).
func (ih *IHTL) NumPushSources() int { return ih.NumHubs + ih.NumVWEH }

// FlippedEdges returns the total edge count across flipped blocks.
func (ih *IHTL) FlippedEdges() int64 {
	var e int64
	for i := range ih.Blocks {
		e += ih.Blocks[i].NumEdges()
	}
	return e
}

// Vertex classes of §3.2. New IDs are assigned hub, VWEH, FV — in
// that order (Figure 4).
const (
	classFV = iota
	classVWEH
	classHub
)

// Build constructs the iHTL graph of g per §3.2-3.3, sequentially.
func Build(g *graph.Graph, p Params) (*IHTL, error) {
	return BuildWith(g, p, nil)
}

// BuildWith is Build parallelised on pool: hub ranking, vertex
// classification, relabeling and block construction all run across
// the pool's workers, producing output bit-for-bit identical to the
// sequential Build. A nil pool (or a one-worker pool) selects the
// sequential path. The phase breakdown of either path is available
// through (*IHTL).BuildStats afterwards.
func BuildWith(g *graph.Graph, p Params, pool *sched.Pool) (*IHTL, error) {
	return BuildWithCtx(nil, g, p, pool)
}

// errCoreBuildAborted is the placeholder error of a phase check that
// observed the pool's abort flag; the deferred region close replaces
// it with the underlying cause (ctx.Err() or a *sched.PanicError).
var errCoreBuildAborted = errors.New("core: build aborted")

// BuildWithCtx is BuildWith with cancellation and panic isolation:
// the whole rank → select → relabel → blocks pipeline runs inside one
// fallible pool region, so cancelling ctx stops in-flight passes at
// their next chunk claim and returns ctx.Err() between phases, and a
// panic in any pool worker comes back as a *sched.PanicError instead
// of crashing the process. ctx may be nil (no cancellation); a nil or
// single-worker pool runs sequentially with the same between-phase
// ctx checks.
func BuildWithCtx(ctx context.Context, g *graph.Graph, p Params, pool *sched.Pool) (ih *IHTL, err error) {
	start := time.Now()
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rp := p.withDefaults()
	if pool != nil && pool.Workers() <= 1 {
		pool = nil
	}
	if pool != nil {
		end, ferr := pool.Fallible(ctx)
		if ferr != nil {
			return nil, ferr
		}
		defer func() {
			if rerr := end(); rerr != nil {
				ih, err = nil, rerr
			}
		}()
	}
	check := func() error {
		if pool != nil && pool.Aborted() {
			return errCoreBuildAborted
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	ih = &IHTL{NumV: g.NumV, NumE: g.NumE, HubsPerBlock: rp.HubsPerBlock, params: rp}
	if g.NumV == 0 {
		ih.NewID = []graph.VID{}
		ih.OldID = []graph.VID{}
		ih.Sparse.Index = []int64{0}
		ih.buildStats.Wall = time.Since(start)
		return ih, nil
	}
	var clk []buildClock
	if pool != nil {
		clk = make([]buildClock, pool.Workers())
	}

	t := time.Now()
	var ranked []graph.VID
	if pool == nil {
		ranked = rankByInDegree(g)
	} else {
		ranked = rankByInDegreePar(g, pool, clk)
	}
	ih.buildStats.Rank = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	var numHubs, blocks, minHubDeg int
	if rp.FastSelect {
		numHubs, blocks, minHubDeg = selectHubsFast(g, ranked, rp)
	} else {
		numHubs, blocks, minHubDeg = selectHubs(g, ranked, rp)
	}
	ih.buildStats.Select = time.Since(t)
	ih.MinHubDegree = minHubDeg
	ih.NumHubs = numHubs
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	relabel(g, ih, ranked, rp, pool, clk)
	ih.buildStats.Relabel = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	buildFlippedBlocks(g, ih, blocks, pool, clk)
	if err := check(); err != nil {
		return nil, err
	}
	buildSparseBlock(g, ih, pool, clk)
	ih.buildStats.Blocks = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	if got := ih.FlippedEdges() + ih.Sparse.NumEdges(); got != g.NumE {
		return nil, fmt.Errorf("core: internal error: blocks cover %d edges, want %d", got, g.NumE)
	}
	if checkedBuild {
		if err := checkEdgePartition(g, ih); err != nil {
			return nil, err
		}
	}
	for i := range clk {
		ih.buildStats.RankBusy += clk[i].rank
		ih.buildStats.RelabelBusy += clk[i].relabel
		ih.buildStats.BlocksBusy += clk[i].blocks
	}
	ih.buildStats.Wall = time.Since(start)
	return ih, nil
}

// relabel classifies every vertex (hub / VWEH / FV) and fills the
// NewID/OldID arrays (Figure 4): hubs in rank order, then VWEH, then
// FV — each class in original order (§3.2), or reordered under the
// DegreeSortClasses / SparseOrder ablations.
func relabel(g *graph.Graph, ih *IHTL, ranked []graph.VID, rp Params, pool *sched.Pool, clk []buildClock) {
	numHubs := ih.NumHubs
	class := make([]uint8, g.NumV)
	ih.NewID = make([]graph.VID, g.NumV)
	ih.OldID = make([]graph.VID, g.NumV)

	// Classify. The sequential pass walks the in-edges of every hub;
	// the parallel pass flips the direction — each worker scans the
	// out-edges of its own vertices for a hub destination — so every
	// class[v] has exactly one writer. The two define the same VWEH
	// set: s has an edge into some hub h iff h appears in Out(s).
	if pool == nil {
		for i := 0; i < numHubs; i++ {
			class[ranked[i]] = classHub
		}
		for i := 0; i < numHubs; i++ {
			for _, s := range g.In(ranked[i]) {
				if class[s] == classFV {
					class[s] = classVWEH
				}
			}
		}
	} else {
		isHub := make([]bool, g.NumV)
		pool.ForStatic(numHubs, func(worker, lo, hi int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			t := time.Now()
			markHubs(isHub, ranked, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
		pool.ForDynamic(g.NumV, 1024, func(worker, lo, hi int) {
			t := time.Now()
			classifyRange(g, isHub, class, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
	}

	// Hubs take new IDs [0, numHubs) in rank order.
	if pool == nil {
		for i := 0; i < numHubs; i++ {
			ih.OldID[i] = ranked[i]
			ih.NewID[ranked[i]] = graph.VID(i)
		}
	} else {
		pool.ForStatic(numHubs, func(worker, lo, hi int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			t := time.Now()
			assignHubs(ih.NewID, ih.OldID, ranked, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
	}

	// rankWithin orders class members under the SparseOrder extension
	// (§6: apply e.g. Rabbit-Order to the sparse block): nil means
	// original order.
	var rankWithin []graph.VID
	if rp.SparseOrder != nil {
		rankWithin = rp.SparseOrder.Permutation(g)
	}
	if pool != nil && !rp.DegreeSortClasses && rankWithin == nil {
		ih.NumVWEH = assignClassPar(ih, class, classVWEH, numHubs, pool, clk)
		ih.NumFV = assignClassPar(ih, class, classFV, numHubs+ih.NumVWEH, pool, clk)
		return
	}
	next := numHubs
	assignClass := func(want uint8) int {
		members := make([]graph.VID, 0)
		for v := 0; v < g.NumV; v++ {
			if class[v] == want {
				members = append(members, graph.VID(v))
			}
		}
		switch {
		case rp.DegreeSortClasses:
			slices.SortFunc(members, func(a, b graph.VID) int {
				if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		case rankWithin != nil:
			slices.SortFunc(members, func(a, b graph.VID) int {
				return cmp.Compare(rankWithin[a], rankWithin[b])
			})
		}
		for _, v := range members {
			ih.OldID[next] = v
			ih.NewID[v] = graph.VID(next)
			next++
		}
		return len(members)
	}
	ih.NumVWEH = assignClass(classVWEH)
	ih.NumFV = assignClass(classFV)
}

//ihtl:noalloc
func markHubs(isHub []bool, ranked []graph.VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		isHub[ranked[i]] = true
	}
}

//ihtl:noalloc
func classifyRange(g *graph.Graph, isHub []bool, class []uint8, lo, hi int) {
	for v := lo; v < hi; v++ {
		if isHub[v] {
			class[v] = classHub
			continue
		}
		cl := uint8(classFV)
		for _, d := range g.Out(graph.VID(v)) {
			if isHub[d] {
				cl = classVWEH
				break
			}
		}
		class[v] = cl
	}
}

//ihtl:noalloc
func assignHubs(newID, oldID, ranked []graph.VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := ranked[i]
		oldID[i] = v
		newID[v] = graph.VID(i)
	}
}

// assignClassPar gives the members of one class their new IDs
// starting at base, in ascending original-ID order — the same order
// as the sequential scan — via a per-worker count/prefix/fill pass.
func assignClassPar(ih *IHTL, class []uint8, want uint8, base int, pool *sched.Pool, clk []buildClock) int {
	w := pool.Workers()
	counts := make([]int64, w+1)
	n := len(class)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		counts[worker+1] = countClass(class[lo:hi], want)
		c := &clk[worker]
		c.relabel += time.Since(t)
	})
	for i := 0; i < w; i++ {
		counts[i+1] += counts[i]
	}
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		fillClass(class, lo, hi, want, base+int(counts[worker]), ih.NewID, ih.OldID)
		c := &clk[worker]
		c.relabel += time.Since(t)
	})
	return int(counts[w])
}

//ihtl:noalloc
func countClass(class []uint8, want uint8) int64 {
	var n int64
	for _, c := range class {
		if c == want {
			n++
		}
	}
	return n
}

//ihtl:noalloc
func fillClass(class []uint8, lo, hi int, want uint8, next int, newID, oldID []graph.VID) {
	for v := lo; v < hi; v++ {
		if class[v] == want {
			oldID[next] = graph.VID(v)
			newID[v] = graph.VID(next)
			next++
		}
	}
}

// rankByInDegree returns vertex IDs sorted by descending in-degree,
// ties broken by ascending ID for determinism. Degrees are bounded by
// NumE, so an O(V + maxDegree) counting sort replaces the previous
// O(V log V) comparison sort: bucket starts are laid out from the
// highest degree down, and an ascending-ID scatter preserves the tie
// order.
func rankByInDegree(g *graph.Graph) []graph.VID {
	n := g.NumV
	ranked := make([]graph.VID, n)
	maxDeg := maxInDegree(g, 0, n)
	counts := make([]int64, maxDeg+1)
	countDegrees(g, 0, n, counts)
	descendingStarts(counts)
	scatterRank(g, 0, n, counts, ranked)
	return ranked
}

// rankByInDegreePar is rankByInDegree across the pool: per-worker
// degree histograms over contiguous vertex ranges, a descending-degree
// prefix over the folded totals, per-(degree,worker) scatter cursors,
// and a per-worker scatter. Workers own ascending vertex ranges and
// scatter ascending, so ties land in ascending-ID order — bit-for-bit
// the sequential result.
func rankByInDegreePar(g *graph.Graph, pool *sched.Pool, clk []buildClock) []graph.VID {
	n := g.NumV
	w := pool.Workers()
	maxs := make([]int, w)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		maxs[worker] = maxInDegree(g, lo, hi)
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	maxDeg := 0
	for _, m := range maxs {
		if m > maxDeg {
			maxDeg = m
		}
	}
	k := maxDeg + 1
	counts := make([]int64, w*k)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		countDegrees(g, lo, hi, counts[worker*k:(worker+1)*k])
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	// Fold per-worker histograms into per-degree totals.
	tot := make([]int64, k)
	pool.ForStatic(k, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for d := lo; d < hi; d++ {
			var s int64
			for i := 0; i < w; i++ {
				s += counts[i*k+d]
			}
			tot[d] = s
		}
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	descendingStarts(tot)
	// Worker i's run of degree d starts after the runs of workers < i.
	pool.ForStatic(k, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for d := lo; d < hi; d++ {
			off := tot[d]
			for i := 0; i < w; i++ {
				c := counts[i*k+d]
				counts[i*k+d] = off
				off += c
			}
		}
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	ranked := make([]graph.VID, n)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		scatterRank(g, lo, hi, counts[worker*k:(worker+1)*k], ranked)
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	return ranked
}

//ihtl:noalloc
func maxInDegree(g *graph.Graph, lo, hi int) int {
	m := 0
	for v := lo; v < hi; v++ {
		if d := g.InDegree(graph.VID(v)); d > m {
			m = d
		}
	}
	return m
}

//ihtl:noalloc
func countDegrees(g *graph.Graph, lo, hi int, counts []int64) {
	for v := lo; v < hi; v++ {
		counts[g.InDegree(graph.VID(v))]++
	}
}

// descendingStarts turns per-degree counts into bucket start offsets
// for a descending-degree layout: counts[d] becomes the number of
// vertices with degree above d.
//
//ihtl:noalloc
func descendingStarts(counts []int64) {
	var off int64
	for d := len(counts) - 1; d >= 0; d-- {
		c := counts[d]
		counts[d] = off
		off += c
	}
}

//ihtl:noalloc
func scatterRank(g *graph.Graph, lo, hi int, cursor []int64, ranked []graph.VID) {
	for v := lo; v < hi; v++ {
		d := g.InDegree(graph.VID(v))
		ranked[cursor[d]] = graph.VID(v)
		cursor[d]++
	}
}

// selectHubs implements §3.3: tentative blocks of B top-in-degree
// vertices are admitted while the i-th block's source population
// |FVᵢ| exceeds FVThreshold·|FV₁|. Returns the hub count, the number
// of admitted blocks, and the minimum hub in-degree.
func selectHubs(g *graph.Graph, ranked []graph.VID, p Params) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	seen := make([]bool, g.NumV) // FV-membership marker, reused per block
	var fv1 int
	for blk := 0; blk < p.MaxBlocks; blk++ {
		lo := blk * b
		if lo >= g.NumV {
			break
		}
		hi := lo + b
		if hi > g.NumV {
			hi = g.NumV
		}
		// Degree floor: stop at the first block whose top vertex is
		// already below the hub threshold.
		if g.InDegree(ranked[lo]) < p.MinHubDegree {
			break
		}
		// |FVᵢ|: distinct sources with an edge into this block's
		// hubs ("a pass over in-edges ... to mark the FV members and
		// one other pass ... to count", §3.3).
		sources := 0
		var marked []graph.VID
		for i := lo; i < hi; i++ {
			if g.InDegree(ranked[i]) < p.MinHubDegree {
				// Trailing low-degree vertices within an otherwise
				// admitted block are still hubs only if the block is
				// admitted as a whole; they contribute no sources.
				continue
			}
			for _, s := range g.In(ranked[i]) {
				if !seen[s] {
					seen[s] = true
					marked = append(marked, s)
					sources++
				}
			}
		}
		for _, s := range marked {
			seen[s] = false
		}
		if blk == 0 {
			if sources == 0 {
				break
			}
			fv1 = sources
		} else if float64(sources) <= p.FVThreshold*float64(fv1) {
			break
		}
		// Trim trailing sub-threshold vertices from the last block.
		for hi > lo && g.InDegree(ranked[hi-1]) < p.MinHubDegree {
			hi--
		}
		numHubs = hi
		blocks++
		if hi >= g.NumV {
			break
		}
	}
	if numHubs > 0 {
		// ranked is sorted by descending in-degree, so the last
		// admitted hub carries the minimum (Table 5's "Min. Hub
		// Degree").
		minDeg = g.InDegree(ranked[numHubs-1])
	}
	return numHubs, blocks, minDeg
}

// selectHubsFast implements the §6 lower-complexity variant: compute
// FV₁ once (the distinct sources of block 1's in-edges), then a
// single pass over the OUT-edges of FV₁ members marks, per tentative
// block, which of those sources reach it — estimating every |FVᵢ| at
// once instead of one in-edge pass per block. Sources outside FV₁
// are not counted, so the estimate is a lower bound and the block
// count can only be smaller than the exact §3.3 result.
func selectHubsFast(g *graph.Graph, ranked []graph.VID, p Params) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	maxBlocks := p.MaxBlocks
	if maxBlocks > 64 {
		maxBlocks = 64 // bitset width; the paper's graphs need <= 16
	}
	if g.NumV == 0 || g.InDegree(ranked[0]) < p.MinHubDegree {
		return 0, 0, 0
	}
	// Candidate block of each vertex, by rank.
	blockOf := make([]int8, g.NumV)
	for i := range blockOf {
		blockOf[i] = -1
	}
	limit := maxBlocks * b
	if limit > g.NumV {
		limit = g.NumV
	}
	for i := 0; i < limit; i++ {
		if g.InDegree(ranked[i]) < p.MinHubDegree {
			limit = i
			break
		}
		blockOf[ranked[i]] = int8(i / b)
	}
	if limit == 0 {
		return 0, 0, 0
	}

	// FV₁: distinct sources with an edge into block 1.
	hi1 := b
	if hi1 > limit {
		hi1 = limit
	}
	seen := make([]bool, g.NumV)
	var fv1 []graph.VID
	for i := 0; i < hi1; i++ {
		for _, s := range g.In(ranked[i]) {
			if !seen[s] {
				seen[s] = true
				fv1 = append(fv1, s)
			}
		}
	}
	if len(fv1) == 0 {
		return 0, 0, 0
	}
	// One pass over FV₁'s out-edges: per-source block bitsets
	// aggregated into per-block distinct-source counts.
	counts := make([]int, (limit+b-1)/b)
	for _, s := range fv1 {
		var mask uint64
		for _, d := range g.Out(s) {
			if blk := blockOf[d]; blk >= 0 {
				mask |= 1 << uint(blk)
			}
		}
		for blk := 0; mask != 0; blk++ {
			if mask&1 != 0 {
				counts[blk]++
			}
			mask >>= 1
		}
	}
	threshold := p.FVThreshold * float64(counts[0])
	for blk := 0; blk < len(counts); blk++ {
		if blk > 0 && float64(counts[blk]) <= threshold {
			break
		}
		hi := (blk + 1) * b
		if hi > limit {
			hi = limit
		}
		numHubs = hi
		blocks++
	}
	if numHubs > 0 {
		minDeg = g.InDegree(ranked[numHubs-1])
	}
	return numHubs, blocks, minDeg
}

// buildFlippedBlocks creates the per-block push CSR: "a pass over
// outgoing edges from {hubs ∪ VWEH} in the CSR representation of the
// main graph and selecting edges with in-hub destinations" (§3.2).
// The parallel path partitions sources: each source's slot in every
// block's Index (and its Dsts run) has exactly one writer, and the
// run is filled in the same out-edge scan order as the sequential
// pass, so the blocks come out identical.
func buildFlippedBlocks(g *graph.Graph, ih *IHTL, numBlocks int, pool *sched.Pool, clk []buildClock) {
	if numBlocks == 0 || ih.NumHubs == 0 {
		return
	}
	b := ih.HubsPerBlock
	nsrc := ih.NumPushSources()
	ih.Blocks = make([]FlippedBlock, numBlocks)
	for blk := range ih.Blocks {
		lo := blk * b
		hi := lo + b
		if hi > ih.NumHubs {
			hi = ih.NumHubs
		}
		ih.Blocks[blk] = FlippedBlock{
			HubLo: lo,
			HubHi: hi,
			Index: make([]int64, nsrc+1),
		}
	}
	if pool == nil {
		blockOf := func(hubNew int) int { return hubNew / b }
		// Count per (source, block) degrees.
		for s := 0; s < nsrc; s++ {
			old := ih.OldID[s]
			for _, d := range g.Out(old) {
				nd := int(ih.NewID[d])
				if nd < ih.NumHubs {
					ih.Blocks[blockOf(nd)].Index[s+1]++
				}
			}
		}
		for blk := range ih.Blocks {
			idx := ih.Blocks[blk].Index
			for s := 0; s < nsrc; s++ {
				idx[s+1] += idx[s]
			}
			ih.Blocks[blk].Dsts = make([]graph.VID, idx[nsrc])
		}
		cursors := make([][]int64, numBlocks)
		for blk := range cursors {
			cursors[blk] = make([]int64, nsrc)
			copy(cursors[blk], ih.Blocks[blk].Index[:nsrc])
		}
		for s := 0; s < nsrc; s++ {
			old := ih.OldID[s]
			for _, d := range g.Out(old) {
				nd := int(ih.NewID[d])
				if nd < ih.NumHubs {
					blk := blockOf(nd)
					ih.Blocks[blk].Dsts[cursors[blk][s]] = graph.VID(nd)
					cursors[blk][s]++
				}
			}
		}
		sortFlippedRows(ih, 0, nsrc)
		for blk := range ih.Blocks {
			fb := &ih.Blocks[blk]
			fb.Sources = countBlockSources(fb.Index, nsrc)
		}
		return
	}

	pool.ForDynamic(nsrc, 512, func(worker, lo, hi int) {
		t := time.Now()
		countFlippedRange(g, ih, b, lo, hi)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	for blk := range ih.Blocks {
		sched.PrefixSum(pool, ih.Blocks[blk].Index)
		ih.Blocks[blk].Dsts = make([]graph.VID, ih.Blocks[blk].Index[nsrc])
	}
	cursors := make([][]int64, numBlocks)
	for blk := range cursors {
		cursors[blk] = make([]int64, nsrc)
	}
	pool.ForStatic(nsrc, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for blk := range cursors {
			copy(cursors[blk][lo:hi], ih.Blocks[blk].Index[lo:hi])
		}
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	pool.ForDynamic(nsrc, 512, func(worker, lo, hi int) {
		t := time.Now()
		fillFlippedRange(g, ih, cursors, b, lo, hi)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	pool.ForDynamic(nsrc, 512, func(worker, lo, hi int) {
		t := time.Now()
		sortFlippedRows(ih, lo, hi)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	pool.ForEachPart(numBlocks, func(worker, blk int) {
		t := time.Now()
		fb := &ih.Blocks[blk]
		fb.Sources = countBlockSources(fb.Index, nsrc)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
}

//ihtl:noalloc
func countFlippedRange(g *graph.Graph, ih *IHTL, b, lo, hi int) {
	for s := lo; s < hi; s++ {
		old := ih.OldID[s]
		for _, d := range g.Out(old) {
			nd := int(ih.NewID[d])
			if nd < ih.NumHubs {
				ih.Blocks[nd/b].Index[s+1]++
			}
		}
	}
}

//ihtl:noalloc
func fillFlippedRange(g *graph.Graph, ih *IHTL, cursors [][]int64, b, lo, hi int) {
	for s := lo; s < hi; s++ {
		old := ih.OldID[s]
		for _, d := range g.Out(old) {
			nd := int(ih.NewID[d])
			if nd < ih.NumHubs {
				blk := nd / b
				cur := cursors[blk]
				ih.Blocks[blk].Dsts[cur[s]] = graph.VID(nd)
				cur[s]++
			}
		}
	}
}

// sortFlippedRows sorts the destination run of every source in
// [lo, hi) ascending, in every block. Each run has one owner, so the
// parallel pass produces the sequential pass's exact blocks. The out-
// edge scan fills runs in NewID-scrambled order; sorting restores the
// locality the hub-buffer access pattern benefits from, and cannot
// change results: every destination
// accumulates the same multiset of contributions in the same
// per-accumulator order.
func sortFlippedRows(ih *IHTL, lo, hi int) {
	for blk := range ih.Blocks {
		fb := &ih.Blocks[blk]
		for s := lo; s < hi; s++ {
			row := fb.Dsts[fb.Index[s]:fb.Index[s+1]]
			if len(row) > 1 {
				slices.Sort(row)
			}
		}
	}
}

//ihtl:noalloc
func countBlockSources(index []int64, nsrc int) int {
	n := 0
	for s := 0; s < nsrc; s++ {
		if index[s+1] > index[s] {
			n++
		}
	}
	return n
}

// buildSparseBlock creates the pull CSC over non-hub destinations:
// "a pass over the CSC representation of the main graph for all
// in-edges to {VWEH ∪ FV} and relabeling source of edges" (§3.2).
// Destinations are independent — each owns a disjoint Srcs run — so
// the parallel fill work-steals over them (per-destination work is as
// skewed as the in-degree distribution).
func buildSparseBlock(g *graph.Graph, ih *IHTL, pool *sched.Pool, clk []buildClock) {
	destLo := ih.NumHubs
	n := ih.NumV - destLo
	sp := &ih.Sparse
	sp.DestLo = destLo
	sp.Index = make([]int64, n+1)
	if pool == nil {
		for nv := destLo; nv < ih.NumV; nv++ {
			old := ih.OldID[nv]
			sp.Index[nv-destLo+1] = int64(g.InDegree(old))
		}
		for i := 0; i < n; i++ {
			sp.Index[i+1] += sp.Index[i]
		}
		sp.Srcs = make([]graph.VID, sp.Index[n])
		for nv := destLo; nv < ih.NumV; nv++ {
			fillSparseDest(g, ih, nv)
		}
		sp.EnsureDegreeBuckets()
		return
	}
	idx := sp.Index
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for i := lo; i < hi; i++ {
			idx[i+1] = int64(g.InDegree(ih.OldID[destLo+i]))
		}
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	sched.PrefixSum(pool, sp.Index)
	sp.Srcs = make([]graph.VID, sp.Index[n])
	pool.ForSteal(n, 64, func(worker, lo, hi int) {
		t := time.Now()
		for i := lo; i < hi; i++ {
			fillSparseDest(g, ih, destLo+i)
		}
		c := &clk[worker]
		c.blocks += time.Since(t)
	})

	// Degree buckets for the SparsePullDegree schedule: the same
	// count/prefix/fill idiom as the class assignment, over static
	// ascending ranges so the heavy list comes out ascending — the
	// sequential EnsureDegreeBuckets result, bit for bit.
	sp.HeavyDeg = sp.heavyDegThreshold()
	w := pool.Workers()
	counts := make([]int64, w+1)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		counts[worker+1] = countHeavyRows(sp.Index, sp.HeavyDeg, lo, hi)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	for i := 0; i < w; i++ {
		counts[i+1] += counts[i]
	}
	sp.Heavy = make([]int32, counts[w])
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		fillHeavyRows(sp.Index, sp.HeavyDeg, lo, hi, sp.Heavy, int(counts[worker]))
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
}

//ihtl:noalloc
func countHeavyRows(index []int64, heavyDeg int64, lo, hi int) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		if index[i+1]-index[i] >= heavyDeg {
			n++
		}
	}
	return n
}

//ihtl:noalloc
func fillHeavyRows(index []int64, heavyDeg int64, lo, hi int, heavy []int32, next int) {
	for i := lo; i < hi; i++ {
		if index[i+1]-index[i] >= heavyDeg {
			heavy[next] = int32(i)
			next++
		}
	}
}

//ihtl:noalloc
func fillSparseDest(g *graph.Graph, ih *IHTL, nv int) {
	sp := &ih.Sparse
	lo := sp.Index[nv-sp.DestLo]
	hi := sp.Index[nv-sp.DestLo+1]
	dst := sp.Srcs[lo:hi]
	old := ih.OldID[nv]
	for i, s := range g.In(old) {
		dst[i] = ih.NewID[s]
	}
	slices.Sort(dst)
}
