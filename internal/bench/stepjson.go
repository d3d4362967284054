package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
)

// StepKernels lists the kernel IDs RunStepJSON measures, in report
// order: the five baseline traversal engines (including standalone
// propagation blocking), and the fused Algorithm 3 engine under each
// sparse kernel: pinned to the paper's pull, and degree-aware pull
// (sparse.go).
func StepKernels() []string {
	return []string{
		"pull", "push-atomic", "push-buffered", "push-partitioned",
		"prop-blocked",
		"ihtl-fused", "ihtl-pull-degree",
	}
}

// StepResult is one (dataset, kernel) measurement. Scalar records
// leave the batch fields at their zero values, so reports written
// before the batch sweep existed still parse (and re-serialise)
// unchanged.
type StepResult struct {
	Dataset   string  `json:"dataset"`
	Kernel    string  `json:"kernel"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	NsPerStep int64   `json:"ns_per_step"`
	NsPerEdge float64 `json:"ns_per_edge"`

	// BytesPerEdge is the kernel's modelled memory traffic per edge
	// (engine BytesPerStep / Edges; see internal/spmv/footprint.go):
	// topology streams once, vertex-data accesses per access, scratch
	// passes per pass. It is a demand model, not a measurement.
	BytesPerEdge float64 `json:"bytes_per_edge,omitempty"`

	// ResidentBytes is the topology footprint the engine keeps
	// addressable in memory (ResidentTopologyBytes).
	ResidentBytes int64 `json:"resident_bytes,omitempty"`

	// SparseNs is an iHTL record's per-step sparse busy time.
	// Baseline (non-iHTL) records leave it at zero.
	SparseNs int64 `json:"sparse_ns,omitempty"`

	// BatchK is the batch width of a batched-kernel record (0 for
	// scalar records). NsPerStep is then the time of one K-wide
	// StepBatch and NsPerEdge is per edge-LANE (K lanes per edge).
	BatchK int `json:"batch_k,omitempty"`
	// EdgesPerSecPerVec is the per-vector edge throughput of a batched
	// record: Edges / (NsPerStep/BatchK) — the effective per-vector
	// step time shrinks to NsPerStep/K, so this is the figure that
	// must rise with K for batching to pay.
	EdgesPerSecPerVec float64 `json:"edges_per_sec_per_vec,omitempty"`
}

// StepReport is the machine-readable per-kernel step-time report;
// WriteStepJSON serialises it (conventionally to
// results/BENCH_step.json) for tracking across commits.
type StepReport struct {
	Workers    int `json:"workers"`
	GoMaxProcs int `json:"gomaxprocs"`
	Iters      int `json:"iters"`
	// Host identifies the measuring machine and runtime (see
	// HostInfo); reports written before it existed parse with a nil
	// Host.
	Host    *HostInfo    `json:"host,omitempty"`
	Results []StepResult `json:"results"`
}

// RunStepJSON measures the average SpMV step time of every kernel in
// StepKernels on each dataset, normalised per edge.
func RunStepJSON(env *Env, datasets []*Dataset) (*StepReport, error) {
	rep := &StepReport{
		Workers:    env.Pool.Workers(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Iters:      env.Iters,
		Host:       CollectHost(env.Pool.Workers()),
	}
	for _, d := range datasets {
		g, err := d.Load()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		for _, kernel := range StepKernels() {
			e, err := stepEngine(env, g, kernel)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", d.Name, kernel, err)
			}
			ns := stepTime(e, env.Iters).Nanoseconds()
			res := StepResult{
				Dataset:   d.Name,
				Kernel:    kernel,
				Vertices:  g.NumV,
				Edges:     g.NumE,
				NsPerStep: ns,
				NsPerEdge: float64(ns) / float64(g.NumE),
			}
			if fp, ok := e.(interface{ BytesPerStep() int64 }); ok {
				res.BytesPerEdge = float64(fp.BytesPerStep()) / float64(g.NumE)
			}
			if rb, ok := e.(interface{ ResidentTopologyBytes() int64 }); ok {
				res.ResidentBytes = rb.ResidentTopologyBytes()
			}
			if ce, ok := e.(*core.Engine); ok {
				if b := ce.TakeBreakdown(); b.Steps > 0 {
					res.SparseNs = b.SparseBusy.Nanoseconds() / int64(b.Steps)
				}
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// BatchKs lists the batch widths of the -batch sweep.
func BatchKs() []int { return []int{1, 4, 8, 16} }

// BatchKernels lists the kernel IDs measured per batch width: the
// pull and buffered-push baselines and the fused iHTL engine, each in
// its batched (multi-vector) form.
func BatchKernels() []string {
	return []string{"pull-batch", "push-buffered-batch", "ihtl-fused-batch"}
}

// AppendBatchSweep measures the batched kernels at every width in ks
// on each dataset and appends the records to rep. The iHTL engine is
// rebuilt per width with Params.ForBatch, so its K-wide hub buffers
// keep the scalar cache budget.
func AppendBatchSweep(rep *StepReport, env *Env, datasets []*Dataset, ks []int) error {
	if len(ks) == 0 {
		ks = BatchKs()
	}
	for _, d := range datasets {
		g, err := d.Load()
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		for _, kernel := range BatchKernels() {
			for _, k := range ks {
				e, err := batchEngine(env, g, kernel, k)
				if err != nil {
					return fmt.Errorf("%s/%s/k%d: %w", d.Name, kernel, k, err)
				}
				ns := stepBatchTime(e, k, env.Iters).Nanoseconds()
				rep.Results = append(rep.Results, StepResult{
					Dataset:           d.Name,
					Kernel:            kernel,
					Vertices:          g.NumV,
					Edges:             g.NumE,
					NsPerStep:         ns,
					NsPerEdge:         float64(ns) / float64(g.NumE*int64(k)),
					BatchK:            k,
					EdgesPerSecPerVec: float64(g.NumE) * float64(k) / float64(ns) * 1e9,
				})
			}
		}
	}
	return nil
}

// batchEngine builds the named batched kernel's engine for g at
// width k.
func batchEngine(env *Env, g *graph.Graph, kernel string, k int) (spmv.BatchStepper, error) {
	switch kernel {
	case "pull-batch":
		return spmv.NewEngine(g, env.Pool, spmv.Pull, spmv.Options{})
	case "push-buffered-batch":
		return spmv.NewEngine(g, env.Pool, spmv.PushBuffered, spmv.Options{})
	case "ihtl-fused-batch":
		ih, err := core.Build(g, env.ihtlParams().ForBatch(k))
		if err != nil {
			return nil, err
		}
		return core.NewEngine(ih, env.Pool)
	default:
		return nil, fmt.Errorf("bench: unknown batch kernel %q", kernel)
	}
}

// stepEngine builds the named kernel's engine for g.
func stepEngine(env *Env, g *graph.Graph, kernel string) (spmv.Stepper, error) {
	switch kernel {
	case "pull":
		return spmv.NewEngine(g, env.Pool, spmv.Pull, spmv.Options{})
	case "push-atomic":
		return spmv.NewEngine(g, env.Pool, spmv.PushAtomic, spmv.Options{})
	case "push-buffered":
		return spmv.NewEngine(g, env.Pool, spmv.PushBuffered, spmv.Options{})
	case "push-partitioned":
		return spmv.NewEngine(g, env.Pool, spmv.PushPartitioned, spmv.Options{})
	case "prop-blocked":
		return spmv.NewEngine(g, env.Pool, spmv.PropBlocked, spmv.Options{})
	case "ihtl-fused", "ihtl-pull-degree":
		// ihtl-fused pins the sparse kernel to the paper's pull so the
		// two ihtl-* rows form a clean sparse-kernel ablation.
		ih, err := core.Build(g, env.ihtlParams())
		if err != nil {
			return nil, err
		}
		k := core.SparsePull
		if kernel == "ihtl-pull-degree" {
			k = core.SparsePullDegree
		}
		return core.NewEngineOpts(ih, env.Pool, core.EngineOptions{SparseKernel: k})
	default:
		return nil, fmt.Errorf("bench: unknown step kernel %q", kernel)
	}
}

// WriteStepJSON writes the report as indented JSON, creating the
// target directory if needed.
func WriteStepJSON(path string, rep *StepReport) error {
	return writeJSON(path, rep)
}

// writeJSON writes v as indented JSON, creating the target directory
// if needed.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
