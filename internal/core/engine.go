package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Engine executes Algorithm 3 over a built IHTL graph: push the
// flipped blocks into per-thread hub buffers, merge the buffers, then
// pull the sparse block. It implements spmv.Stepper.
//
// The three phases run as a SINGLE fused pool dispatch: each worker
// pushes its fixed share of the flipped tasks, claims sparse
// partitions with range stealing, and each flipped block's merge is
// gated only on that block's completion counter — not on a global
// barrier. This is safe because the destinations are disjoint: merges
// write dst[0, NumHubs) and the sparse pull writes dst[DestLo, NumV).
//
// The flipped-task → worker assignment is a pure function of the
// topology and the worker count, merges fold worker buffers in
// ascending worker order, and every sparse kernel sums each
// destination in an order fixed by the topology. Step and StepBatch
// are therefore bit-for-bit reproducible across runs at a fixed
// worker count, except under the AtomicFlipped ablation, whose CAS
// accumulation order is schedule-dependent.
//
// The engine operates in iHTL (relabeled) vertex-ID space; use
// IHTL.NewID/OldID or the PermuteToNew/PermuteToOld helpers to move
// vectors between ID spaces.
type Engine struct {
	ih            *IHTL
	pool          *sched.Pool
	atomicFlipped bool

	// bufs[w] is worker w's private accumulation buffer over all
	// hubs — "each thread buffers B * #fb vertex data" (§3.4). With
	// B sized to L2/8, one buffer per flipped block fits L2.
	bufs [][]float64
	// blockTasks are (block, source-chunk) pairs; a worker processes
	// one at a time, so it works on a single flipped block at a time as
	// §3.4 requires. Tasks are ordered by block, so a worker's
	// contiguous share (flipBounds) stays inside one block's buffer as
	// long as possible.
	blockTasks []blockTask
	// tasksPerBlock[b] is the number of blockTasks targeting block b;
	// it arms the per-block completion counters each Step.
	tasksPerBlock []int
	// emptyBlocks lists blocks with no tasks at all; their hub slots
	// still need zeroing each fused Step.
	emptyBlocks []int
	// sparseBounds are edge-balanced destination ranges of the
	// sparse block.
	sparseBounds []int

	// sparseKernel is the resolved sparse-block kernel (never
	// SparseAuto after construction); see sparse.go.
	sparseKernel SparseKernel
	// heavyBounds/lightBounds are the SparsePullDegree schedule:
	// edge-balanced parts over the build-time heavy-row list, and
	// coarse chunks over the remaining short rows.
	heavyBounds []int
	lightBounds []int
	// auxSched claims SparsePullDegree's heavy parts.
	auxSched *sched.StealScheduler

	// Fused-dispatch state. flipBounds partitions blockTasks into one
	// contiguous share per worker: worker w pushes tasks
	// [flipBounds[w], flipBounds[w+1]). sparseSched is a persistent
	// steal scheduler (allocated once, Reset per Step); blockGate holds
	// one countdown latch per flipped block; dirty tracks, per (worker,
	// block), the hub range the worker actually touched so merges read
	// only buffers that were written.
	flipBounds  []int
	sparseSched *sched.StealScheduler
	blockGate   *sched.Countdowns
	dirty       []dirtyRange // indexed worker*len(Blocks)+block
	// hubClearBounds and clearBarrier serve the AtomicFlipped path:
	// workers cooperatively zero the hub slots, cross the barrier,
	// then push with CAS.
	hubClearBounds []int
	clearBarrier   *sched.Barrier
	// fusedJob is the prebuilt worker body (capturing only e), so a
	// fused Step allocates nothing; curSrc/curDst stage its vectors.
	fusedJob       func(w int)
	curSrc, curDst []float64
	// StepEpi state: the staged epilogue and the barrier its workers
	// cross once dst is complete.
	curEpi     func(w, lo, hi int)
	epiBarrier *sched.Barrier

	// batch is the K-wide state of StepBatch, allocated on first use
	// of a width and reused while the width is stable.
	batch *batchState

	// Numeric-health watchdog state. health is the configured policy;
	// healthArmed stages whether the in-flight step scans (policy on,
	// Every-th step); healthBad are the per-worker padded bad-element
	// counters the fused epilogue scan fills; healthErr is the verdict
	// collected after the dispatch; curK is the staged lane width the
	// scan must cover (1 for scalar steps).
	health      spmv.HealthPolicy
	healthArmed bool
	healthBad   []healthSlot
	healthErr   *spmv.NumericError
	curK        int

	// clocks accumulate per-worker busy time per phase, cache-line
	// padded so the frequent updates don't false-share.
	clocks []workerClock

	breakdown Breakdown
}

type blockTask struct {
	block  int
	lo, hi int // source range
	// dLo, dHi bound the hub IDs this task's edges can write
	// (precomputed at build). Tracking the dirty range per task
	// instead of per edge keeps the push inner loop free of range
	// bookkeeping; the range is conservative (a source with a zero
	// value still widens it), which is sound because untouched buffer
	// slots hold the additive identity.
	dLo, dHi int
}

// buildBlockTasks cuts each flipped block into edge-balanced source
// chunks — tasks — and precomputes each task's hub destination range.
// It also returns the task count per block (arming the fused merge
// countdowns) and the blocks with no tasks at all, whose hub slots
// must still be initialised each Step.
func buildBlockTasks(ih *IHTL, chunksPerBlock int) (tasks []blockTask, perBlock, empty []int) {
	perBlock = make([]int, len(ih.Blocks))
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.NumEdges() == 0 {
			empty = append(empty, b)
			continue
		}
		bounds := sched.EdgeBalancedParts(fb.Index, chunksPerBlock)
		for c := 0; c < len(bounds)-1; c++ {
			lo, hi := bounds[c], bounds[c+1]
			if lo >= hi {
				continue
			}
			t := blockTask{block: b, lo: lo, hi: hi}
			for i := fb.Index[lo]; i < fb.Index[hi]; i++ {
				d := int(fb.Dsts[i])
				if t.dHi == t.dLo { // first edge
					t.dLo, t.dHi = d, d+1
					continue
				}
				if d < t.dLo {
					t.dLo = d
				}
				if d+1 > t.dHi {
					t.dHi = d + 1
				}
			}
			tasks = append(tasks, t)
			perBlock[b]++
		}
		if perBlock[b] == 0 {
			empty = append(empty, b)
		}
	}
	return tasks, perBlock, empty
}

// dirtyRange is a half-open hub interval; empty when hi <= lo.
type dirtyRange struct {
	lo, hi int
}

// healthSlot is one worker's non-finite tally, padded to a cache line.
type healthSlot struct {
	count int64
	first int64
	_     [6]int64
}

// workerClock is one worker's per-phase busy time, padded to a cache
// line.
type workerClock struct {
	flipped time.Duration
	merge   time.Duration
	sparse  time.Duration
	_       [5]int64
}

// Breakdown accumulates time per Algorithm 3 phase across Steps;
// Table 5's "FB Time" and "Buffer Merging" columns divide these by the
// total.
//
// The phase fields sum, over workers, the time each worker actually
// spent executing a phase: fused phases overlap and have no wall-clock
// boundaries to time. Wall is the elapsed time of whole Steps
// (including any fused StepEpi epilogue).
type Breakdown struct {
	FlippedBusy time.Duration // Σ workers' in-phase busy time
	MergeBusy   time.Duration
	SparseBusy  time.Duration

	Wall  time.Duration // elapsed time of all Steps
	Steps int
}

// SparseTotalBusy returns the summed busy time of the sparse phase.
func (b Breakdown) SparseTotalBusy() time.Duration { return b.SparseBusy }

// Total returns the elapsed time of all Steps.
func (b Breakdown) Total() time.Duration { return b.Wall }

// TotalBusy returns the summed per-worker busy time across phases.
func (b Breakdown) TotalBusy() time.Duration {
	return b.FlippedBusy + b.MergeBusy + b.SparseTotalBusy()
}

// FlippedFrac returns the fraction of busy time spent pushing flipped
// blocks (0 when no Steps ran).
func (b Breakdown) FlippedFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.FlippedBusy) / float64(t)
	}
	return 0
}

// MergeFrac returns the fraction of busy time spent merging buffers.
func (b Breakdown) MergeFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.MergeBusy) / float64(t)
	}
	return 0
}

// EngineOptions tunes the Algorithm 3 engine.
type EngineOptions struct {
	// AtomicFlipped processes flipped blocks with atomic updates
	// directly into the hub data instead of per-thread buffers. The
	// paper chose buffering "as it is more efficient in the setting
	// of iHTL" (§3.4); this option exists to ablate that choice. It
	// applies to scalar steps only: StepBatch with k > 1 runs the
	// buffered batch pipeline on every engine.
	AtomicFlipped bool
	// StaticFlipped is ignored: every engine pins the flipped-task →
	// worker assignment to a fixed partition, so Step and StepBatch are
	// bit-for-bit reproducible across runs at a fixed worker count (see
	// Engine). The field remains so callers can state that they rely on
	// it; setting it together with AtomicFlipped is rejected, because
	// CAS accumulation cannot give that reproducibility.
	StaticFlipped bool
	// Health arms the opt-in numeric watchdog: the SpMV result vector
	// is scanned for NaN/±Inf after each (Every-th) step, fused into
	// the epilogue sweep on the fused pipeline. See spmv.HealthPolicy.
	Health spmv.HealthPolicy
	// SparseKernel selects the sparse-block kernel: SparseAuto (the
	// measured default), SparsePull or SparsePullDegree. Both produce
	// bit-for-bit identical results; they differ in scheduling. See
	// sparse.go.
	SparseKernel SparseKernel
}

// NewEngine prepares an Algorithm 3 engine on the given pool with
// default options. The pool is borrowed, not owned.
func NewEngine(ih *IHTL, pool *sched.Pool) (*Engine, error) {
	return NewEngineOpts(ih, pool, EngineOptions{})
}

// NewEngineOpts is NewEngine with explicit options.
func NewEngineOpts(ih *IHTL, pool *sched.Pool, opt EngineOptions) (*Engine, error) {
	if ih == nil || pool == nil {
		return nil, fmt.Errorf("core: nil IHTL or pool")
	}
	if opt.StaticFlipped && opt.AtomicFlipped {
		return nil, fmt.Errorf("core: StaticFlipped is incompatible with AtomicFlipped (CAS accumulation order is schedule-dependent)")
	}
	e := &Engine{ih: ih, pool: pool, atomicFlipped: opt.AtomicFlipped, health: opt.Health}
	w := pool.Workers()
	if !e.atomicFlipped {
		e.bufs = make([][]float64, w)
		for i := range e.bufs {
			e.bufs[i] = make([]float64, ih.NumHubs)
		}
	}
	// Edge-balanced source chunks per flipped block: the per-block CSR
	// index arrays give exact per-source edge counts.
	e.blockTasks, e.tasksPerBlock, e.emptyBlocks = buildBlockTasks(ih, w*4)
	if n := ih.NumV - ih.Sparse.DestLo; n > 0 {
		e.sparseBounds = sched.EdgeBalancedParts(ih.Sparse.Index, w*4)
	}
	e.initSparseKernel(opt.SparseKernel)
	e.flipBounds = sched.VertexBalancedParts(len(e.blockTasks), w)
	e.sparseSched = sched.NewStealScheduler(w)
	e.blockGate = sched.NewCountdowns(len(ih.Blocks))
	e.dirty = make([]dirtyRange, w*len(ih.Blocks))
	e.clocks = make([]workerClock, w)
	if e.atomicFlipped && ih.NumHubs > 0 {
		e.hubClearBounds = sched.VertexBalancedParts(ih.NumHubs, w)
		e.clearBarrier = sched.NewBarrier(w)
	}
	if e.atomicFlipped {
		e.fusedJob = e.fusedWorkerAtomic
	} else {
		e.fusedJob = e.fusedWorkerBuffered
	}
	e.epiBarrier = sched.NewBarrier(w)
	e.healthBad = make([]healthSlot, w)
	e.curK = 1
	return e, nil
}

// Workers returns the number of distinct worker indices a StepEpi
// epilogue can observe: the pool's worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// NumVertices implements spmv.Stepper.
func (e *Engine) NumVertices() int { return e.ih.NumV }

// Graph returns the engine's iHTL graph.
func (e *Engine) Graph() *IHTL { return e.ih }

// TakeBreakdown returns the accumulated phase breakdown and resets it.
func (e *Engine) TakeBreakdown() Breakdown {
	b := e.breakdown
	e.breakdown = Breakdown{}
	return b
}

// Step computes dst[v] = Σ_{u ∈ N⁻(v)} src[u] in iHTL ID space.
// src and dst must have length NumV and must not alias.
//
//ihtl:noalloc
func (e *Engine) Step(src, dst []float64) { e.StepEpi(src, dst, nil) }

// StepEpi is Step followed by an element-wise epilogue: every worker
// runs epi(w, lo, hi) over its static share [lo, hi) of [0, NumV)
// once all of dst is complete. The epilogue runs INSIDE the step's
// dispatch, behind an internal barrier, so a whole analytic iteration
// — SpMV plus e.g. PageRank's damping/delta/contribution sweep — costs
// a single pool round-trip. epi may be nil.
//
//ihtl:noalloc
func (e *Engine) StepEpi(src, dst []float64, epi func(w, lo, hi int)) {
	if herr := e.stepEpi(src, dst, epi); herr != nil {
		e.panicHealth(herr)
	}
}

// panicHealth raises a watchdog verdict from the plain (non-ctx)
// entrypoints, which have no error return; StepEpiCtx returns it
// instead.
func (e *Engine) panicHealth(herr *spmv.NumericError) {
	panic(herr)
}

// stepEpi is the shared body of StepEpi and StepEpiCtx: one scalar
// step plus epilogue, returning the numeric-health verdict (nil when
// the watchdog is off, scanning a different step, or satisfied).
//
//ihtl:noalloc
func (e *Engine) stepEpi(src, dst []float64, epi func(w, lo, hi int)) *spmv.NumericError {
	ih := e.ih
	if len(src) != ih.NumV || len(dst) != ih.NumV {
		panic("core: vector length mismatch")
	}
	e.armHealth(1)
	e.curEpi = epi
	e.stepFused(src, dst)
	e.curEpi = nil
	e.breakdown.Steps++
	return e.collectHealth()
}

// StepCtx is Step with cancellation and panic isolation: it returns
// ctx.Err() promptly when ctx is cancelled (observed at every flipped
// task and sparse claim), converts a pool-worker panic into a returned
// *sched.PanicError, and returns a *spmv.NumericError when the armed
// health watchdog fails the step. After a cancelled or panicked step
// the engine's reusable state (hub buffers, dirty ranges, barriers) is
// restored, so the next clean step is bit-for-bit identical to one on
// a fresh engine.
func (e *Engine) StepCtx(ctx context.Context, src, dst []float64) error {
	return e.StepEpiCtx(ctx, src, dst, nil)
}

// StepEpiCtx is StepEpi with the StepCtx contract.
func (e *Engine) StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error {
	end, err := e.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := e.stepEpi(src, dst, epi)
	if err := end(); err != nil {
		e.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// armHealth stages the watchdog for one step of lane width k.
//
//ihtl:noalloc
func (e *Engine) armHealth(k int) {
	e.curK = k
	e.healthErr = nil
	if e.health.Mode == spmv.HealthOff {
		e.healthArmed = false
		return
	}
	e.healthArmed = e.health.Every <= 1 || e.breakdown.Steps%e.health.Every == 0
	if e.healthArmed {
		for i := range e.healthBad {
			e.healthBad[i].count = 0
			e.healthBad[i].first = 0
		}
	}
}

// healthScan is one worker's share of the watchdog sweep over the
// staged destination vector: flat lanes [lo*k, hi*k). It tallies
// non-finite elements into the worker's padded slot and, under
// HealthClamp, zeroes them in place. The first element of the range is
// routed through the fault injector's poison site, the deterministic
// hook the recovery tests and ihtlbench -faults use to corrupt a step.
//
//ihtl:noalloc
func (e *Engine) healthScan(w, lo, hi int) {
	k := e.curK
	dst := e.curDst
	flo, fhi := lo*k, hi*k
	if fhi > flo {
		dst[flo] = faultinject.Poison(faultinject.SiteStepHealth, dst[flo])
	}
	clamp := e.health.Mode == spmv.HealthClamp
	slot := &e.healthBad[w]
	for i := flo; i < fhi; i++ {
		if !isFinite(dst[i]) {
			if slot.count == 0 {
				slot.first = int64(i)
			}
			slot.count++
			if clamp {
				dst[i] = 0
			}
		}
	}
}

// isFinite reports whether x is neither NaN nor ±Inf (exponent bits
// not all ones). Bit test, not float compare, so the zero-skip
// analyzer's float-compare rules don't apply.
//
//ihtl:noalloc
func isFinite(x float64) bool {
	const expMask = 0x7FF0000000000000
	return math.Float64bits(x)&expMask != expMask
}

// collectHealth folds the per-worker scan slots into a verdict after
// the dispatch. Clamped steps succeed by construction; Error and
// Rollback modes fail the step when anything non-finite was seen.
// Only the failure path allocates.
func (e *Engine) collectHealth() *spmv.NumericError {
	if !e.healthArmed {
		return nil
	}
	var count int64
	first := -1
	for w := range e.healthBad {
		s := &e.healthBad[w]
		if s.count == 0 {
			continue
		}
		count += s.count
		if first < 0 || int(s.first) < first {
			first = int(s.first)
		}
	}
	if count == 0 || e.health.Mode == spmv.HealthClamp {
		return nil
	}
	e.healthErr = &spmv.NumericError{Count: count, First: first, Rollback: e.health.Mode == spmv.HealthRollback}
	return e.healthErr
}

// recoverState restores the engine's reusable cross-step state after
// an aborted (cancelled or panicked) step, so the next clean step is
// bit-for-bit identical to one on a fresh engine: hub buffers may hold
// partial accumulations, dirty ranges may be half-widened, and the
// intra-dispatch barriers may hold straggler arrival counts.
func (e *Engine) recoverState() {
	for w := range e.bufs {
		clear(e.bufs[w])
	}
	for i := range e.dirty {
		e.dirty[i] = dirtyRange{}
	}
	e.epiBarrier.Reset()
	if e.clearBarrier != nil {
		e.clearBarrier.Reset()
	}
	if e.batch != nil {
		e.batch.recoverState()
	}
	for w := range e.clocks {
		e.clocks[w] = workerClock{}
	}
	e.curSrc, e.curDst, e.curEpi = nil, nil, nil
	e.healthArmed = false
}

// stepFused runs all of Algorithm 3 as one pool dispatch; see
// fusedWorkerBuffered for the worker body.
//
//ihtl:noalloc
func (e *Engine) stepFused(src, dst []float64) {
	start := time.Now()
	e.resetSparseScheds()
	if !e.atomicFlipped {
		e.blockGate.Reset(e.tasksPerBlock)
	}
	e.curSrc, e.curDst = src, dst
	e.pool.Run(e.fusedJob)
	e.curSrc, e.curDst = nil, nil
	e.harvestClocks()
	e.breakdown.Wall += time.Since(start)
}

// fusedWorkerBuffered is one worker's share of a fused buffered Step:
//
//  1. push the worker's fixed share of flipped tasks (flipBounds),
//     accumulating into its private hub buffer and widening the dirty
//     hub range per block by the task's precomputed destination bounds;
//  2. whenever a task completes its block (per-block countdown), merge
//     that block immediately — only buffers with non-empty dirty
//     ranges are read, and the hub slots are owned exclusively because
//     every task of the block has finished;
//  3. when the worker's flipped share is done, claim sparse partitions
//     by range stealing and pull them;
//  4. if a StepEpi epilogue is staged, cross the epilogue barrier and
//     run the worker's share of it.
//
// No phase barrier exists between 1-3: a worker can be pulling sparse
// partitions while another still pushes a flipped block, because their
// dst ranges are disjoint ([0, NumHubs) vs [DestLo, NumV)).
//
// The fixed share keeps the task → worker assignment, and with it
// every buffer's partial-sum operand set, a pure function of the
// topology and worker count; the abort check runs once per task.
//
// Phase clocks are read once per loop, not per task: flipped busy time
// is the whole task loop minus the merges nested inside it.
//
//ihtl:noalloc
func (e *Engine) fusedWorkerBuffered(w int) {
	ih := e.ih
	src, dst := e.curSrc, e.curDst
	t0 := time.Now()
	if w == 0 {
		// Blocks with no edges are never merged; their hub slots are
		// still SpMV outputs (sums over zero terms) and must be zeroed.
		for _, b := range e.emptyBlocks {
			fb := &ih.Blocks[b]
			clear(dst[fb.HubLo:fb.HubHi])
		}
	}
	nb := len(ih.Blocks)
	buf := e.bufs[w]
	var mergeTime time.Duration
	for ti, end := e.flipBounds[w], e.flipBounds[w+1]; ti < end && !e.pool.Aborted(); ti++ {
		faultinject.Fire(faultinject.SiteFlippedTask)
		bt := &e.blockTasks[ti]
		pushTaskFlat(bt, &ih.Blocks[bt.block], src, buf)
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
			faultinject.Fire(faultinject.SiteMergeBlock)
			tm := time.Now()
			e.mergeBlock(bt.block, dst)
			mergeTime += time.Since(tm)
		}
	}
	t1 := time.Now()
	clk := &e.clocks[w]
	clk.flipped += t1.Sub(t0) - mergeTime
	clk.merge += mergeTime
	e.sparseWorker(w, src, dst)
	e.runEpilogue(w)
}

// runEpilogue crosses the epilogue barrier and runs the worker's share
// of a staged StepEpi epilogue; a no-op when none is staged. The
// barrier is required because the epilogue may read any dst element,
// while phases 1-3 only guarantee completion of the whole vector at
// dispatch end.
//
//ihtl:noalloc
func (e *Engine) runEpilogue(w int) {
	if e.curEpi == nil && !e.healthArmed {
		return
	}
	if !e.epiBarrier.WaitAbort(e.pool) {
		return
	}
	lo, hi := sched.SplitRange(e.ih.NumV, len(e.clocks), w)
	if e.healthArmed {
		e.healthScan(w, lo, hi)
	}
	if e.curEpi != nil {
		e.curEpi(w, lo, hi)
	}
}

// mergeBlock folds every worker's dirty hub range of block b into dst
// and resets the consumed buffer slots. The caller must hold the
// block's completion (its countdown reached zero), which makes the
// buffer slots and dirty entries of b stable and the hub range
// exclusively owned. Merge cost is proportional to the hub ranges
// actually written, not workers x NumHubs.
//
//ihtl:noalloc
func (e *Engine) mergeBlock(b int, dst []float64) {
	fb := &e.ih.Blocks[b]
	clear(dst[fb.HubLo:fb.HubHi])
	nb := len(e.ih.Blocks)
	for t := range e.bufs {
		dr := &e.dirty[t*nb+b]
		if dr.hi <= dr.lo {
			continue
		}
		buf := e.bufs[t]
		for h := dr.lo; h < dr.hi; h++ {
			dst[h] += buf[h]
			buf[h] = 0
		}
		dr.lo, dr.hi = 0, 0
	}
}

// fusedWorkerAtomic is the AtomicFlipped ablation's fused worker:
// cooperative hub zeroing, a spin barrier (CAS pushes must not start
// before every hub slot is cleared), the worker's fixed share of
// flipped tasks with CAS updates, then the sparse pull.
//
//ihtl:noalloc
func (e *Engine) fusedWorkerAtomic(w int) {
	ih := e.ih
	src, dst := e.curSrc, e.curDst
	clk := &e.clocks[w]
	if ih.NumHubs > 0 {
		t0 := time.Now()
		clear(dst[e.hubClearBounds[w]:e.hubClearBounds[w+1]])
		clk.merge += time.Since(t0)
		if !e.clearBarrier.WaitAbort(e.pool) {
			return
		}
	}
	t1 := time.Now() // after the barrier: waiting is not busy time
	for ti, end := e.flipBounds[w], e.flipBounds[w+1]; ti < end && !e.pool.Aborted(); ti++ {
		faultinject.Fire(faultinject.SiteFlippedTask)
		bt := &e.blockTasks[ti]
		pushTaskFlatAtomic(bt, &ih.Blocks[bt.block], src, dst)
	}
	t2 := time.Now()
	clk.flipped += t2.Sub(t1)
	e.sparseWorker(w, src, dst)
	e.runEpilogue(w)
}

// harvestClocks folds the per-worker phase clocks into the breakdown
// and resets them. Called after the dispatch completes, so no worker
// is concurrently writing.
//
//ihtl:noalloc
func (e *Engine) harvestClocks() {
	for w := range e.clocks {
		c := &e.clocks[w]
		e.breakdown.FlippedBusy += c.flipped
		e.breakdown.MergeBusy += c.merge
		e.breakdown.SparseBusy += c.sparse
		*c = workerClock{}
	}
}

// PermuteToNew scatters a vector indexed by original IDs into iHTL ID
// order: out[NewID[v]] = in[v].
func (ih *IHTL) PermuteToNew(in, out []float64) {
	if len(in) != ih.NumV || len(out) != ih.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range ih.NewID {
		out[nv] = in[v]
	}
}

// PermuteToOld is the inverse of PermuteToNew: out[v] = in[NewID[v]].
func (ih *IHTL) PermuteToOld(in, out []float64) {
	if len(in) != ih.NumV || len(out) != ih.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range ih.NewID {
		out[v] = in[nv]
	}
}
