package core

import (
	"ihtl/internal/sched"
)

// phasedStep runs one scalar step of e as Algorithm 3's three phases
// in separate pool dispatches, each ending in the dispatch's implicit
// barrier: every worker pushes its fixed share of the flipped tasks,
// then every block is merged, then the sparse block is pulled. It uses
// the engine's own tasks, partition, buffers and kernels, so comparing
// it with e.Step checks that fusing the phases into one dispatch —
// per-block merge gating, sparse pulls overlapping flipped pushes —
// changes no bit of the result. On an AtomicFlipped engine the hub
// range is cleared before the push phase and there is no merge phase.
func phasedStep(e *Engine, src, dst []float64) {
	ih := e.ih
	if len(src) != ih.NumV || len(dst) != ih.NumV {
		panic("core: vector length mismatch")
	}
	e.resetSparseScheds()
	nb := len(ih.Blocks)
	if e.atomicFlipped {
		clear(dst[:ih.NumHubs])
	}
	e.pool.Run(func(w int) {
		for ti := e.flipBounds[w]; ti < e.flipBounds[w+1]; ti++ {
			bt := &e.blockTasks[ti]
			fb := &ih.Blocks[bt.block]
			if e.atomicFlipped {
				pushTaskFlatAtomic(bt, fb, src, dst)
			} else {
				pushTaskFlat(bt, fb, src, e.bufs[w])
			}
			if e.atomicFlipped || bt.dHi <= bt.dLo {
				continue
			}
			dr := &e.dirty[w*nb+bt.block]
			if dr.hi <= dr.lo {
				dr.lo, dr.hi = bt.dLo, bt.dHi
				continue
			}
			dr.lo = min(dr.lo, bt.dLo)
			dr.hi = max(dr.hi, bt.dHi)
		}
	})
	if !e.atomicFlipped {
		// Merging a block no task wrote zeroes its hub range, which is
		// what the fused pipeline does for its edgeless blocks.
		e.pool.Run(func(w int) {
			lo, hi := sched.SplitRange(nb, e.Workers(), w)
			for b := lo; b < hi; b++ {
				e.mergeBlock(b, dst)
			}
		})
	}
	e.pool.Run(func(w int) { e.sparseWorker(w, src, dst) })
	e.harvestClocks()
}

// phasedEngine steps through phasedStep and batches through the
// engine's own fused StepBatch.
type phasedEngine struct{ *Engine }

func (p phasedEngine) Step(src, dst []float64) { phasedStep(p.Engine, src, dst) }
