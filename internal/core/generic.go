package core

import (
	"fmt"

	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// GenericEngine runs Algorithm 3 over any commutative monoid — the §6
// extension of iHTL beyond sum-SpMV: with the min monoid it computes
// the label-propagation step of connected components, with min-plus
// relaxations SSSP rounds, with boolean-or reachability — each with
// flipped-block locality for the in-hubs.
//
// Like the float64 Engine, a StepMonoid is one fused pool dispatch:
// each worker's fixed share of flipped tasks, per-block
// countdown-gated merges over dirty hub ranges, then the stolen sparse
// pull — no inter-phase barriers. The
// merge may skip buffers a worker never touched because
// Combine(acc, Identity) == acc.
type GenericEngine[T any] struct {
	ih   *IHTL
	pool *sched.Pool
	m    spmv.Monoid[T]

	bufs          [][]T
	blockTasks    []blockTask
	tasksPerBlock []int
	emptyBlocks   []int
	sparseBounds  []int

	flipBounds     []int
	sparseSched    *sched.StealScheduler
	blockGate      *sched.Countdowns
	dirty          []dirtyRange
	fusedJob       func(w int)
	curSrc, curDst []T
}

// NewGenericEngine prepares a monoid Algorithm 3 engine.
func NewGenericEngine[T any](ih *IHTL, pool *sched.Pool, m spmv.Monoid[T]) (*GenericEngine[T], error) {
	if ih == nil || pool == nil {
		return nil, fmt.Errorf("core: nil IHTL or pool")
	}
	if m.Combine == nil {
		return nil, fmt.Errorf("core: monoid without Combine")
	}
	e := &GenericEngine[T]{ih: ih, pool: pool, m: m}
	e.bufs = make([][]T, pool.Workers())
	for w := range e.bufs {
		buf := make([]T, ih.NumHubs)
		for i := range buf {
			buf[i] = m.Identity
		}
		e.bufs[w] = buf
	}
	e.blockTasks, e.tasksPerBlock, e.emptyBlocks = buildBlockTasks(ih, pool.Workers()*4)
	if n := ih.NumV - ih.Sparse.DestLo; n > 0 {
		e.sparseBounds = sched.EdgeBalancedParts(ih.Sparse.Index, pool.Workers()*4)
	}
	w := pool.Workers()
	e.flipBounds = sched.VertexBalancedParts(len(e.blockTasks), w)
	e.sparseSched = sched.NewStealScheduler(w)
	e.blockGate = sched.NewCountdowns(len(ih.Blocks))
	e.dirty = make([]dirtyRange, w*len(ih.Blocks))
	e.fusedJob = e.fusedWorker
	return e, nil
}

// NumVertices implements spmv.GenericStepper.
func (e *GenericEngine[T]) NumVertices() int { return e.ih.NumV }

// StepMonoid implements spmv.GenericStepper over iHTL IDs.
//
//ihtl:noalloc
func (e *GenericEngine[T]) StepMonoid(src, dst []T) {
	ih := e.ih
	if len(src) != ih.NumV || len(dst) != ih.NumV {
		panic("core: vector length mismatch")
	}
	if n := len(e.sparseBounds) - 1; n > 0 {
		e.sparseSched.Reset(n)
	}
	e.blockGate.Reset(e.tasksPerBlock)
	e.curSrc, e.curDst = src, dst
	e.pool.Run(e.fusedJob)
	e.curSrc, e.curDst = nil, nil
}

// fusedWorker mirrors Engine.fusedWorkerBuffered for an arbitrary
// monoid: the worker's flipped share accumulates into its private
// buffer with dirty-range tracking, the block's last finisher merges
// it, and finished workers move straight on to the sparse pull.
//
//ihtl:noalloc
func (e *GenericEngine[T]) fusedWorker(w int) {
	ih := e.ih
	m := e.m
	src, dst := e.curSrc, e.curDst
	if w == 0 {
		for _, b := range e.emptyBlocks {
			fb := &ih.Blocks[b]
			for h := fb.HubLo; h < fb.HubHi; h++ {
				dst[h] = m.Identity
			}
		}
	}
	nb := len(ih.Blocks)
	buf := e.bufs[w]
	for ti, end := e.flipBounds[w], e.flipBounds[w+1]; ti < end; ti++ {
		bt := &e.blockTasks[ti]
		fb := &ih.Blocks[bt.block]
		dsts := fb.Dsts
		for s := bt.lo; s < bt.hi; s++ {
			elo, ehi := fb.Index[s], fb.Index[s+1]
			if elo == ehi {
				continue
			}
			x := src[s]
			for i := elo; i < ehi; i++ {
				d := dsts[i]
				buf[d] = m.Combine(buf[d], m.Apply(x, graph.VID(s), d))
			}
		}
		if bt.dHi > bt.dLo {
			dr := &e.dirty[w*nb+bt.block]
			if dr.hi <= dr.lo {
				dr.lo, dr.hi = bt.dLo, bt.dHi
			} else {
				if bt.dLo < dr.lo {
					dr.lo = bt.dLo
				}
				if bt.dHi > dr.hi {
					dr.hi = bt.dHi
				}
			}
		}
		if e.blockGate.Done(bt.block) {
			e.mergeBlock(bt.block, dst)
		}
	}
	// Sparse pull; dst range disjoint from every merge.
	sp := &ih.Sparse
	if len(e.sparseBounds) < 2 {
		return
	}
	for {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		for p := lo; p < hi; p++ {
			vlo, vhi := e.sparseBounds[p], e.sparseBounds[p+1]
			for i := vlo; i < vhi; i++ {
				acc := m.Identity
				d := graph.VID(sp.DestLo + i)
				for j := sp.Index[i]; j < sp.Index[i+1]; j++ {
					u := sp.Srcs[j]
					acc = m.Combine(acc, m.Apply(src[u], u, d))
				}
				dst[sp.DestLo+i] = acc
			}
		}
	}
}

// mergeBlock folds the dirty hub ranges of block b into dst and resets
// the consumed buffer slots to Identity. Skipping untouched buffers is
// sound because Combine(acc, Identity) == acc.
//
//ihtl:noalloc
func (e *GenericEngine[T]) mergeBlock(b int, dst []T) {
	m := e.m
	fb := &e.ih.Blocks[b]
	for h := fb.HubLo; h < fb.HubHi; h++ {
		dst[h] = m.Identity
	}
	nb := len(e.ih.Blocks)
	for t := range e.bufs {
		dr := &e.dirty[t*nb+b]
		if dr.hi <= dr.lo {
			continue
		}
		buf := e.bufs[t]
		for h := dr.lo; h < dr.hi; h++ {
			dst[h] = m.Combine(dst[h], buf[h])
			buf[h] = m.Identity
		}
		dr.lo, dr.hi = 0, 0
	}
}
