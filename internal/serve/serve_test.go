package serve

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// testEngineFile builds an RMAT graph, its iHTL, and serialises it in
// the mmap-friendly v2 layout — the shape a production daemon loads.
func testEngineFile(t *testing.T, scale, k int, seed uint64) string {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64}.ForBatch(k))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(enginePath string) Config {
	return Config{
		EnginePath: enginePath,
		Workers:    4,
		Lanes:      4,
		FillWindow: 20 * time.Millisecond,
		QueueLimit: 64,
		Query:      JobOptions{MaxIters: 60, Tol: 1e-8, RedistributeDangling: true},
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // cleanup
		s.Close()
	})
	return s
}

// soloPPR computes the reference answer the serving contract promises:
// a solo run on a default engine over the SAME engine file with the
// same worker count, mapped back to original IDs.
func soloPPR(t *testing.T, enginePath string, workers int, src uint32, opt analytics.PageRankOptions) ([]float64, analytics.PPRResult) {
	t.Helper()
	ef, err := core.OpenEngineFile(enginePath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	pool := sched.NewPool(workers)
	defer pool.Close()
	ih := ef.IHTL()
	eng, err := core.NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analytics.RunPersonalizedPageRank(eng, ih.OutDegrees(), pool, []int{int(ih.NewID[src])}, opt)
	if err != nil {
		t.Fatal(err)
	}
	engRanks := res.Lane(0, nil)
	out := make([]float64, len(engRanks))
	for nv, r := range engRanks {
		out[ih.OldID[nv]] = r
	}
	return out, res
}

// pickSources returns vertices with outgoing edges (original IDs).
func pickSources(t *testing.T, enginePath string, n int) []uint32 {
	t.Helper()
	ef, err := core.OpenEngineFile(enginePath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	ih := ef.IHTL()
	deg := ih.OutDegrees()
	var out []uint32
	for v := 0; v < ih.NumV && len(out) < n; v += 1 + ih.NumV/(3*n) {
		if deg[v] > 0 {
			out = append(out, uint32(ih.OldID[v]))
		}
	}
	if len(out) != n {
		t.Fatalf("found only %d sources", len(out))
	}
	return out
}

// TestServeCoalescedBitIdenticalToSolo is the coalescing exactness
// contract end to end: K concurrent queries arriving within one fill
// window ride one batch, and each answer is bit-for-bit the solo run
// of the same source — twice, so the packing itself is reproducible.
func TestServeCoalescedBitIdenticalToSolo(t *testing.T) {
	path := testEngineFile(t, 9, 4, 41)
	cfg := testConfig(path)
	s := startServer(t, cfg)
	srcs := pickSources(t, path, 4)
	opt := analytics.PageRankOptions{
		MaxIters: cfg.Query.MaxIters, Tol: cfg.Query.Tol, RedistributeDangling: true,
	}

	for round := 0; round < 2; round++ {
		answers := make([]PPRAnswer, len(srcs))
		var wg sync.WaitGroup
		for i, src := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ans, err := s.QueryPPR(context.Background(), src)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				answers[i] = ans
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, src := range srcs {
			ans := answers[i]
			if !ans.Converged {
				t.Fatalf("round %d query %d not converged: %+v", round, i, ans)
			}
			want, res := soloPPR(t, path, cfg.Workers, src, opt)
			if ans.Iters != res.Iters {
				t.Fatalf("round %d query %d converged at %d, solo at %d", round, i, ans.Iters, res.Iters)
			}
			for v := range want {
				if math.Float64bits(ans.Ranks[v]) != math.Float64bits(want[v]) {
					t.Fatalf("round %d query %d rank[%d] = %v, solo %v", round, i, v, ans.Ranks[v], want[v])
				}
			}
		}
	}
	m := s.Metrics()
	if m.Served < 8 {
		t.Fatalf("served = %d, want >= 8", m.Served)
	}
}
