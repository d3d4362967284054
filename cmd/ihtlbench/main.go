// Command ihtlbench regenerates the paper's evaluation tables and
// figures on the synthetic dataset registry.
//
// Usage:
//
//	ihtlbench -exp fig7                 # one experiment, full registry
//	ihtlbench -exp all -small           # everything, small datasets
//	ihtlbench -exp table5 -datasets sk,uu
//	ihtlbench -list                     # show experiments and datasets
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ihtl/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (fig1|fig2|fig7|table2|table3|table4|fig8|table5|table6|fig9|all)")
		datasets  = flag.String("datasets", "", "comma-separated dataset names (default: all in registry)")
		small     = flag.Bool("small", false, "use the reduced-size registry")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		iters     = flag.Int("iters", 8, "timed iterations per measurement")
		list      = flag.Bool("list", false, "list experiments and datasets, then exit")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		stepjson  = flag.String("stepjson", "", "measure per-kernel step times and write them as JSON to this path (e.g. results/BENCH_step.json), then exit")
		batch     = flag.Bool("batch", false, "with -stepjson: also sweep the batched (multi-vector) kernels at K = 1,4,8,16 over the batch registry (rmat18 + sk-s)")
		buildjson = flag.String("buildjson", "", "measure sequential and parallel preprocessing times (graph build, rank, select, relabel, blocks) and write them as JSON to this path (e.g. results/BENCH_build.json), then exit")
		faults    = flag.String("faults", "", "run the fault-recovery smoke (PageRank with seeded cancel/NaN/panic faults vs clean) and write the timings as JSON to this path (e.g. results/BENCH_faults.json), then exit")
		faultseed = flag.Uint64("faultseed", 1, "with -faults: seed deriving the fault iterations")
		servejson = flag.String("servejson", "", "drive the ranking daemon with a closed-loop Zipf query load at each -servelanes width and write throughput/latency/lane-fill JSON to this path (e.g. results/BENCH_serve.json), then exit")
		servelane = flag.String("servelanes", "", "with -servejson: comma-separated coalescing widths to sweep (default 1,2,4,8)")
		servescal = flag.Int("servescale", 12, "with -servejson: R-MAT scale of the served graph")
	)
	flag.Parse()

	reg := bench.Registry()
	if *small {
		reg = bench.SmallRegistry()
	}
	if *list {
		fmt.Println("experiments:", strings.Join(bench.Experiments(), " "), "all")
		fmt.Println("datasets:")
		for _, d := range reg {
			fmt.Printf("  %-10s %-7s analog of %s\n", d.Name, d.Kind, d.Analog)
		}
		return
	}

	selected := reg
	if *datasets != "" {
		selected = nil
		for _, name := range strings.Split(*datasets, ",") {
			d, err := bench.ByName(reg, strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, d)
		}
	}

	env := bench.NewEnv(*workers)
	defer env.Close()
	env.Iters = *iters
	env.Out = os.Stdout
	env.CSV = *csv

	if *faults != "" {
		rep, err := bench.RunFaultsJSON(env, bench.FaultDataset(*small), *faultseed)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteStepJSON(*faults, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(rep.Results), *faults)
		return
	}

	if *servejson != "" {
		var widths []int
		if *servelane != "" {
			for _, s := range strings.Split(*servelane, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					fatal(fmt.Errorf("invalid -servelanes entry %q", s))
				}
				widths = append(widths, n)
			}
		}
		rep, err := bench.RunServeJSON(env, *servescal, widths)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteServeJSON(*servejson, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(rep.Results), *servejson)
		return
	}

	if *buildjson != "" {
		rep, err := bench.RunBuildJSON(env, selected)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteBuildJSON(*buildjson, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(rep.Results), *buildjson)
		return
	}

	if *stepjson != "" {
		rep, err := bench.RunStepJSON(env, selected)
		if err != nil {
			fatal(err)
		}
		if *batch {
			// The sweep runs on its own registry (the scale-18 R-MAT
			// acceptance dataset) unless datasets were named explicitly.
			sweep := bench.BatchSweepRegistry()
			if *datasets != "" {
				sweep = selected
			}
			if err := bench.AppendBatchSweep(rep, env, sweep, bench.BatchKs()); err != nil {
				fatal(err)
			}
		}
		if err := bench.WriteStepJSON(*stepjson, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(rep.Results), *stepjson)
		return
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(env, selected)
	} else {
		err = bench.Run(env, *exp, selected)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ihtlbench:", err)
	os.Exit(1)
}
