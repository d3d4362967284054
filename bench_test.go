// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4) at test scale, one benchmark per artefact, plus the
// ablation benches of DESIGN.md §6. Full-scale runs with paper-style
// table output live in cmd/ihtlbench.
package ihtl_test

import (
	"fmt"
	"sync"
	"testing"

	"ihtl/internal/analytics"
	"ihtl/internal/bench"
	"ihtl/internal/cache"
	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/order"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/stats"
)

var (
	benchOnce   sync.Once
	benchSocial *graph.Graph // R-MAT, reciprocal hubs (social analog)
	benchWeb    *graph.Graph // asymmetric in-hubs (web analog)
	benchPool   *sched.Pool
	benchCache  cache.Config
	benchB      int // hubs per flipped block, derived from scaled L2
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := gen.DefaultRMAT(15, 16, 1001)
		cfg.Reciprocity = 0.7
		var err error
		if benchSocial, err = gen.RMAT(cfg); err != nil {
			panic(err)
		}
		if benchWeb, err = gen.Web(gen.DefaultWeb(100_000, 1002)); err != nil {
			panic(err)
		}
		benchPool = sched.NewPool(0)
		// Match the harness geometry (internal/bench.NewEnv): the
		// paper's Xeon scaled ~64x so the analog graphs exceed the
		// simulated LLC the way the paper's graphs exceed the real one.
		benchCache = cache.Config{
			LineSize: 64,
			Levels: []cache.LevelConfig{
				{SizeBytes: 4 << 10, Ways: 8},
				{SizeBytes: 16 << 10, Ways: 16},
				{SizeBytes: 512 << 10, Ways: 8},
			},
			ModelPrefetch: true,
		}
		benchB = benchCache.Levels[1].SizeBytes / spmv.VertexBytes
	})
}

func buildIHTL(b *testing.B, g *graph.Graph) (*core.IHTL, *core.Engine) {
	b.Helper()
	ih, err := core.Build(g, core.Params{HubsPerBlock: benchB})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(ih, benchPool)
	if err != nil {
		b.Fatal(err)
	}
	return ih, e
}

func stepVectors(g *graph.Graph) (src, dst []float64) {
	src = make([]float64, g.NumV)
	dst = make([]float64, g.NumV)
	for i := range src {
		src[i] = 1 / float64(g.NumV)
	}
	return src, dst
}

func benchStepper(b *testing.B, g *graph.Graph, s spmv.Stepper) {
	b.Helper()
	src, dst := stepVectors(g)
	b.SetBytes(g.NumE * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(src, dst)
		src, dst = dst, src
	}
}

// BenchmarkFig7 regenerates Figure 7: per-iteration SpMV time of each
// traversal engine on the social analog.
func BenchmarkFig7(b *testing.B) {
	benchSetup(b)
	for _, dir := range []spmv.Direction{spmv.Pull, spmv.PushAtomic, spmv.PushBuffered, spmv.PushPartitioned} {
		dir := dir
		b.Run(dir.String(), func(b *testing.B) {
			e, err := spmv.NewEngine(benchSocial, benchPool, dir, spmv.Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchStepper(b, benchSocial, e)
		})
	}
	b.Run("ihtl", func(b *testing.B) {
		_, e := buildIHTL(b, benchSocial)
		benchStepper(b, benchSocial, e)
	})
}

// BenchmarkTable2 regenerates Table 2's numerator: the iHTL
// preprocessing (graph construction) cost.
func BenchmarkTable2(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(benchSocial, core.Params{HubsPerBlock: benchB}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3: one cache-simulated iteration
// under pull and under iHTL, reporting misses as custom metrics.
func BenchmarkTable3(b *testing.B) {
	benchSetup(b)
	b.Run("pull", func(b *testing.B) {
		var last spmv.SimStats
		for i := 0; i < b.N; i++ {
			last, _ = spmv.SimulatePull(benchWeb, benchCache, false)
		}
		b.ReportMetric(float64(last.L3.Misses), "L3miss")
		b.ReportMetric(float64(last.L2.Misses), "L2miss")
	})
	b.Run("ihtl", func(b *testing.B) {
		ih, _ := buildIHTL(b, benchWeb)
		var last spmv.SimStats
		for i := 0; i < b.N; i++ {
			last, _ = core.SimulateStep(ih, benchWeb, benchCache, false)
		}
		b.ReportMetric(float64(last.L3.Misses), "L3miss")
		b.ReportMetric(float64(last.L2.Misses), "L2miss")
	})
}

// BenchmarkTable4 regenerates Table 4: topology-size accounting
// (reported as a metric; the build dominates the time).
func BenchmarkTable4(b *testing.B) {
	benchSetup(b)
	var overhead float64
	for i := 0; i < b.N; i++ {
		ih, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB})
		if err != nil {
			b.Fatal(err)
		}
		overhead = ih.Stats(benchWeb).OverheadFrac
	}
	b.ReportMetric(overhead*100, "topo-overhead-%")
}

// BenchmarkTable5 regenerates Table 5's execution breakdown: timed
// iHTL iterations with the flipped/merge/sparse phase split.
func BenchmarkTable5(b *testing.B) {
	benchSetup(b)
	ih, e := buildIHTL(b, benchSocial)
	src, dst := stepVectors(benchSocial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(src, dst)
		src, dst = dst, src
	}
	b.StopTimer()
	exec := ih.ExecStats(e.TakeBreakdown())
	b.ReportMetric(exec.FlippedTimeFrac*100, "FBtime-%")
	b.ReportMetric(exec.MergeTimeFrac*100, "merge-%")
	b.ReportMetric(exec.FlippedSpeed, "FBspeed")
}

// BenchmarkTable6 regenerates Table 6: the buffer-size sweep.
func BenchmarkTable6(b *testing.B) {
	benchSetup(b)
	l1 := benchCache.Levels[0].SizeBytes
	l2 := benchCache.Levels[1].SizeBytes
	for _, p := range []struct {
		name  string
		bytes int
	}{
		{"L1", l1}, {"L2half", l2 / 2}, {"L2", l2}, {"L2x2", l2 * 2},
	} {
		p := p
		b.Run(p.name, func(b *testing.B) {
			ih, err := core.Build(benchSocial, core.Params{CacheBytes: p.bytes})
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(ih, benchPool)
			if err != nil {
				b.Fatal(err)
			}
			benchStepper(b, benchSocial, e)
		})
	}
}

// BenchmarkFig1 regenerates Figure 1: cache-simulated pull and iHTL
// with per-degree miss attribution.
func BenchmarkFig1(b *testing.B) {
	benchSetup(b)
	b.Run("pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmv.SimulatePull(benchWeb, benchCache, true)
		}
	})
	b.Run("ihtl", func(b *testing.B) {
		ih, _ := buildIHTL(b, benchWeb)
		for i := 0; i < b.N; i++ {
			core.SimulateStep(ih, benchWeb, benchCache, true)
		}
	})
}

// BenchmarkFig8 regenerates Figure 8: relabeling preprocessing plus
// pull iteration after relabeling, per algorithm (GOrder on a reduced
// graph as in the paper's own size caps).
func BenchmarkFig8(b *testing.B) {
	benchSetup(b)
	small, err := gen.RMAT(gen.DefaultRMAT(12, 8, 1003))
	if err != nil {
		b.Fatal(err)
	}
	algs := []order.Algorithm{order.SlashBurn{}, order.RabbitOrder{}}
	for _, alg := range algs {
		alg := alg
		b.Run("pre-"+alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Permutation(benchSocial)
			}
		})
	}
	b.Run("pre-gorder-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.GOrder{}.Permutation(small)
		}
	})
	b.Run("pre-ihtl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(benchSocial, core.Params{HubsPerBlock: benchB}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pull-after-rabbit", func(b *testing.B) {
		perm := order.RabbitOrder{}.Permutation(benchSocial)
		rg, err := graph.Relabel(benchSocial, perm)
		if err != nil {
			b.Fatal(err)
		}
		e, err := spmv.NewEngine(rg, benchPool, spmv.Pull, spmv.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchStepper(b, rg, e)
	})
}

// BenchmarkFig9 regenerates Figure 9: asymmetricity-by-degree on the
// social and web analogs.
func BenchmarkFig9(b *testing.B) {
	benchSetup(b)
	var socAsym, webAsym float64
	for i := 0; i < b.N; i++ {
		socAsym = stats.HubAsymmetricity(benchSocial, 100)
		webAsym = stats.HubAsymmetricity(benchWeb, 100)
	}
	b.ReportMetric(socAsym, "social-hub-asym")
	b.ReportMetric(webAsym, "web-hub-asym")
}

// BenchmarkPageRankEndToEnd measures the full application the paper
// evaluates, over the iHTL engine.
func BenchmarkPageRankEndToEnd(b *testing.B) {
	benchSetup(b)
	ih, e := buildIHTL(b, benchSocial)
	deg := make([]int, benchSocial.NumV)
	for nv := range deg {
		deg[nv] = benchSocial.OutDegree(ih.OldID[nv])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytics.RunPageRank(e, deg, benchPool,
			analytics.PageRankOptions{MaxIters: 5, Tol: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAtomicFlipped ablates §3.4's buffering choice:
// flipped blocks processed via CAS into hub data vs per-thread
// buffers (DESIGN.md ablation 1).
func BenchmarkAblationAtomicFlipped(b *testing.B) {
	benchSetup(b)
	ih, err := core.Build(benchSocial, core.Params{HubsPerBlock: benchB})
	if err != nil {
		b.Fatal(err)
	}
	for _, opt := range []struct {
		name   string
		atomic bool
	}{{"buffered", false}, {"atomic", true}} {
		opt := opt
		b.Run(opt.name, func(b *testing.B) {
			e, err := core.NewEngineOpts(ih, benchPool, core.EngineOptions{AtomicFlipped: opt.atomic})
			if err != nil {
				b.Fatal(err)
			}
			benchStepper(b, benchSocial, e)
		})
	}
}

// BenchmarkStepPipeline times the fused single-dispatch Step at a
// small scale where per-dispatch overhead dominates and at a large
// scale where edge traversal does. 8 workers matches the paper-style
// setup; the PageRank variants measure full application iterations
// (Step plus the fused element-wise epilogue).
func BenchmarkStepPipeline(b *testing.B) {
	pool := sched.NewPool(8)
	defer pool.Close()
	for _, sc := range []struct {
		name  string
		scale int
	}{{"scale10", 10}, {"scale12", 12}, {"scale18", 18}} {
		g, err := gen.RMAT(gen.DefaultRMAT(sc.scale, 16, 77))
		if err != nil {
			b.Fatal(err)
		}
		ih, err := core.Build(g, core.Params{HubsPerBlock: 2048})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEngine(ih, pool)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.name+"/step-fused", func(b *testing.B) {
			benchStepper(b, g, e)
		})
		deg := make([]int, g.NumV)
		for nv := range deg {
			deg[nv] = g.OutDegree(ih.OldID[nv])
		}
		b.Run(sc.name+"/pagerank-fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analytics.RunPageRank(e, deg, pool,
					analytics.PageRankOptions{MaxIters: 5, Tol: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepBatch sweeps the batch width over the scale-18 R-MAT:
// K interleaved vectors advanced by one shared edge traversal, for the
// fused iHTL engine (rebuilt per width with Params.ForBatch so the
// K-wide hub buffers keep the scalar cache budget) and the pull
// baseline. The reported Medge-per-vec/s metric — edge-lane throughput
// per vector — is the figure of merit: it must rise with K while the
// index stream amortises, then flatten once lane arithmetic dominates.
func BenchmarkStepBatch(b *testing.B) {
	pool := sched.NewPool(8)
	defer pool.Close()
	g, err := gen.RMAT(gen.DefaultRMAT(18, 16, 118))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e spmv.BatchStepper, k int) {
		src := make([]float64, g.NumV*k)
		dst := make([]float64, g.NumV*k)
		for i := range src {
			src[i] = 1 / float64(g.NumV)
		}
		b.SetBytes(g.NumE * 4 * int64(k))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.StepBatch(src, dst, k)
			src, dst = dst, src
		}
		b.StopTimer()
		nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(g.NumE)*float64(k)/nsPerOp*1e3, "Medge-per-vec/s")
	}
	for _, k := range bench.BatchKs() {
		k := k
		b.Run(fmt.Sprintf("ihtl/k%d", k), func(b *testing.B) {
			ih, err := core.Build(g, core.Params{HubsPerBlock: 2048}.ForBatch(k))
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(ih, pool)
			if err != nil {
				b.Fatal(err)
			}
			run(b, e, k)
		})
		b.Run(fmt.Sprintf("pull/k%d", k), func(b *testing.B) {
			e, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
			if err != nil {
				b.Fatal(err)
			}
			run(b, e, k)
		})
	}
}

// BenchmarkSparseKernel ablates the sparse-block kernel — the paper's
// uniform pull against the degree-aware pull schedule (DESIGN.md §12)
// — on both analogs. The web analog is the interesting one: its sparse block
// holds most of the edges, so the sparse kernel dominates the step.
func BenchmarkSparseKernel(b *testing.B) {
	benchSetup(b)
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{{"social", benchSocial}, {"web", benchWeb}} {
		ih, err := core.Build(gr.g, core.Params{HubsPerBlock: benchB})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []core.SparseKernel{core.SparsePull, core.SparsePullDegree} {
			k := k
			b.Run(gr.name+"/"+k.String(), func(b *testing.B) {
				e, err := core.NewEngineOpts(ih, benchPool, core.EngineOptions{SparseKernel: k})
				if err != nil {
					b.Fatal(err)
				}
				benchStepper(b, gr.g, e)
				br := e.TakeBreakdown()
				if br.Steps > 0 {
					b.ReportMetric(float64(br.SparseTotalBusy().Nanoseconds())/float64(br.Steps)/1e3, "sparse-us")
				}
			})
		}
	}
}

// BenchmarkAblationBlockThreshold ablates §3.3's 50% FV admission
// threshold (DESIGN.md ablation 2).
func BenchmarkAblationBlockThreshold(b *testing.B) {
	benchSetup(b)
	for _, th := range []float64{0.25, 0.5, 0.75} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			ih, err := core.Build(benchSocial, core.Params{HubsPerBlock: benchB / 4, FVThreshold: th})
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(ih, benchPool)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(ih.Blocks)), "blocks")
			benchStepper(b, benchSocial, e)
		})
	}
}

func thName(th float64) string {
	switch th {
	case 0.25:
		return "th25"
	case 0.5:
		return "th50"
	default:
		return "th75"
	}
}

// BenchmarkAblationDegreeSortVWEH ablates §5.4's order preservation:
// degree-sorting the VWEH/FV classes vs keeping the initial order
// (DESIGN.md ablation 4).
func BenchmarkAblationDegreeSortVWEH(b *testing.B) {
	benchSetup(b)
	for _, opt := range []struct {
		name string
		sort bool
	}{{"order-preserving", false}, {"degree-sorted", true}} {
		opt := opt
		b.Run(opt.name, func(b *testing.B) {
			ih, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB, DegreeSortClasses: opt.sort})
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewEngine(ih, benchPool)
			if err != nil {
				b.Fatal(err)
			}
			benchStepper(b, benchWeb, e)
		})
	}
}

// BenchmarkIHTLBuild isolates preprocessing scalability on the web
// analog (complements BenchmarkTable2's social graph).
func BenchmarkIHTLBuild(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures the end-to-end preprocessing pipeline on
// the scale-18 R-MAT acceptance graph, sequential vs an 8-worker
// pool: graph/* is the edge-list → dual CSR/CSC build (counting
// sorts, adjacency sort, dedup, zero-degree compaction), core/* is
// the iHTL construction (rank, select, relabel, blocks). The parallel
// variants are bit-for-bit identical to the sequential ones — see
// TestBuildParallelDeterminism and TestBuildWithParallelDeterminism —
// so seq vs par here is a pure wall-clock comparison.
func BenchmarkBuild(b *testing.B) {
	pool := sched.NewPool(8)
	defer pool.Close()
	g, err := gen.RMAT(gen.DefaultRMAT(18, 16, 118))
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges(nil)
	for _, m := range []struct {
		name string
		pool *sched.Pool
	}{{"seq", nil}, {"par", pool}} {
		b.Run("graph/"+m.name, func(b *testing.B) {
			opt := graph.DefaultBuildOptions()
			opt.Pool = m.pool
			b.SetBytes(g.NumE * 8)
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(g.NumV, edges, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("core/"+m.name, func(b *testing.B) {
			b.SetBytes(g.NumE * 8)
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildWith(g, core.Params{HubsPerBlock: 2048}, m.pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarnessSmall runs the full experiment dispatcher on the
// small registry — an end-to-end smoke benchmark of the harness
// itself.
func BenchmarkHarnessSmall(b *testing.B) {
	env := bench.NewEnv(0)
	defer env.Close()
	env.Iters = 2
	ds := bench.SmallRegistry()[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(env, "table4", ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFastSelect compares the exact §3.3 block-count
// procedure against the §6 single-pass estimate, on construction time.
func BenchmarkAblationFastSelect(b *testing.B) {
	benchSetup(b)
	for _, opt := range []struct {
		name string
		fast bool
	}{{"exact", false}, {"fast", true}} {
		opt := opt
		b.Run(opt.name, func(b *testing.B) {
			var blocks int
			for i := 0; i < b.N; i++ {
				ih, err := core.Build(benchSocial, core.Params{HubsPerBlock: benchB / 8, FastSelect: opt.fast})
				if err != nil {
					b.Fatal(err)
				}
				blocks = len(ih.Blocks)
			}
			b.ReportMetric(float64(blocks), "blocks")
		})
	}
}

// BenchmarkExtensionSparseOrder measures the §6 Rabbit-Order-on-the-
// sparse-block extension: build cost and iteration time vs plain iHTL.
func BenchmarkExtensionSparseOrder(b *testing.B) {
	benchSetup(b)
	b.Run("build-plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build-rabbit-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB, SparseOrder: order.RabbitOrder{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("step-rabbit-sparse", func(b *testing.B) {
		ih, err := core.Build(benchWeb, core.Params{HubsPerBlock: benchB, SparseOrder: order.RabbitOrder{}})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEngine(ih, benchPool)
		if err != nil {
			b.Fatal(err)
		}
		benchStepper(b, benchWeb, e)
	})
}

// BenchmarkMulticoreSim sweeps worker counts over the multi-core
// cache simulation (private L1/L2 per core, shared L3) — §3.4's
// private-buffer design point — reporting shared-L3 misses for pull
// vs iHTL as metrics.
func BenchmarkMulticoreSim(b *testing.B) {
	benchSetup(b)
	ih, err := core.Build(benchWeb, core.Params{CacheBytes: benchCache.Levels[1].SizeBytes})
	if err != nil {
		b.Fatal(err)
	}
	for _, cores := range []int{1, 4, 16} {
		cores := cores
		b.Run(coresName(cores), func(b *testing.B) {
			var pullL3, ihtlL3 uint64
			for i := 0; i < b.N; i++ {
				p, err := core.SimulatePullParallel(benchWeb, benchCache, cores)
				if err != nil {
					b.Fatal(err)
				}
				q, err := core.SimulateStepParallel(ih, benchCache, cores)
				if err != nil {
					b.Fatal(err)
				}
				pullL3, ihtlL3 = p.SharedL3.Misses, q.SharedL3.Misses
			}
			b.ReportMetric(float64(pullL3)/1000, "pull-L3k")
			b.ReportMetric(float64(ihtlL3)/1000, "ihtl-L3k")
		})
	}
}

func coresName(c int) string {
	switch c {
	case 1:
		return "1core"
	case 4:
		return "4core"
	default:
		return "16core"
	}
}
