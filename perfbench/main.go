// Command perfbench is the repository benchmark: it runs one named
// workload end to end through the public functions of graph, core,
// analytics, spmv and serve, checks the answers, and prints every
// metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload pr-rmat21 -seed 1 -seconds 35 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run records a span around every layer call and reports the
// per-layer metrics instead. See README.md for the layer → metric →
// workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ihtl/internal/bench"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metric names and units. BENCHMARK.json lists the same names; a test
// keeps the two in step.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"solve_s":     "s",
	"heap_mb":     "MiB",
	"iter_p50_ms": "ms",
}

var perLayerUnits = map[string]string{
	"graph.build_s":                    "s",
	"core.build_s":                     "s",
	"core.build.rank_s":                "s",
	"core.build.select_s":              "s",
	"core.build.relabel_s":             "s",
	"core.build.blocks_s":              "s",
	"core.save_s":                      "s",
	"core.open_s":                      "s",
	"core.outdeg_s":                    "s",
	"core.file_mb":                     "MiB",
	"core.step_ns_per_edge":            "ns",
	"core.steps":                       "count",
	"core.flipped_busy_s":              "s",
	"core.merge_busy_s":                "s",
	"core.sparse_busy_s":               "s",
	"sched.idle_frac":                  "ratio",
	"core.flipped_edge_frac":           "ratio",
	"core.hubs":                        "count",
	"core.bytes_per_edge":              "B",
	"core.step_batch_ns_per_edge_lane": "ns",
	"analytics.ppr_batch_ms":           "ms",
	"analytics.ppr_iters_mean":         "count",
	"analytics.iters":                  "count",
	"analytics.self_s":                 "s",
	"spmv.pull_ns_per_edge":            "ns",
	"ihtl_speedup_over_pull":           "ratio",
	"serve.request_ms":                 "ms",
	"serve.batches":                    "count",
	"serve.lane_fill_mean":             "count",
	"serve.shed":                       "count",
	"serve.closed_qps":                 "1/s",
	"serve.deadline_partials":          "count",
	"loadgen.late_ms_max":              "ms",
	"trace.overhead_frac":              "ratio",
}

// metricSet collects a run's metrics by name; set fixes each unit
// from the tables above.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// outcome is what a workload run reports.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   metricSet
	// Unbounded holds numbers the record keeps but no bound gates:
	// tails that host noise moves more than any code change would.
	Unbounded map[string]float64
	Regime    regime
	Spans     *tracer // traced runs only
}

// regime stamps a record with the input and how it sits against the
// host's caches: the paper's effect needs vertex data beyond L2.
type regime struct {
	Vertices        int     `json:"vertices"`
	Edges           int64   `json:"edges"`
	VectorBytes     int64   `json:"vertex_vector_bytes"`
	L2Bytes         int64   `json:"l2_bytes"`
	LLCBytes        int64   `json:"llc_bytes"`
	VectorOverL2    float64 `json:"vector_over_l2"`
	VectorOverLLC   float64 `json:"vector_over_llc"`
	FlippedEdgeFrac float64 `json:"flipped_edge_frac"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Budget  time.Duration
	Trace   bool
	Dir     string // scratch and input cache
	Workers int
}

// workloads maps each name in BENCHMARK.json to its input, which
// depends only on the seed.
var workloads = map[string]func(seed uint64) prWorkload{
	"pr-rmat21":   rmatPR,
	"pr-web-mmap": webPR,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Int("seconds", 35, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "input cache and scratch directory")
	flag.Parse()

	workload, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds >= 1, -trace 0|1\n", names)
		os.Exit(2)
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{
		Seed: *seed, Budget: time.Duration(*secs) * time.Second,
		Trace: *trace == 1, Dir: *dir, Workers: workers,
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := runPageRank(cfg, workload(cfg.Seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *name, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the human-readable table, writes the host- and
// regime-stamped record beside the cache, and prints the result line
// last.
func report(f *os.File, name string, cfg runConfig, out *outcome) error {
	want := endToEndUnits
	if cfg.Trace {
		want = perLayerUnits
	}
	metrics := metricSet{}
	for n := range want {
		v, ok := out.Metrics[n]
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", name, n)
		}
		metrics[n] = v
	}
	var names []string
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	failFrac := float64(out.Failed) / float64(out.Attempted)
	fmt.Fprintf(f, "workload %s seed %d trace %v\n", name, cfg.Seed, cfg.Trace)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(f, "  %-34s %14.6g ratio (%d of %d)\n", "fail_frac", failFrac, out.Failed, out.Attempted)
	for n, v := range out.Unbounded {
		fmt.Fprintf(f, "  %-34s %14.6g (not gated)\n", n, v)
	}

	rec := map[string]any{
		"workload": name, "seed": cfg.Seed, "trace": cfg.Trace,
		"host": bench.CollectHost(cfg.Workers), "regime": out.Regime,
		"attempted": out.Attempted, "failed": out.Failed, "metrics": metrics,
		"unbounded": out.Unbounded,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "record %s\n", data)
	recDir := filepath.Join(cfg.Dir, "records")
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(recDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.Seed, b2i(cfg.Trace)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if out.Spans != nil {
		if err := out.Spans.writeFile(filepath.Join(recDir, fmt.Sprintf("%s-seed%d-spans.json", name, cfg.Seed))); err != nil {
			return err
		}
	}

	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
