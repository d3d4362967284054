package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/serve"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// The serve probe: a traced run starts a small daemon on an engine file
// and drives it through its HTTP handler, in process and without
// sockets, to measure the serve and batched-PPR layers that the
// PageRank workloads bypass. Its answers are checked like the
// workload's own and count in the run's attempted and failed.
const (
	// pprTol is the served query tolerance, a deployment setting: the
	// daemon default of 1e-9 costs about 100 iterations a query.
	pprTol = 1e-6
	// probeScale is the R-MAT scale of the probe graph: L2-resident,
	// so serve-layer costs are not hidden behind memory stalls.
	probeScale = 12
	probeLanes = 4
	// The closed loop runs first and measures capacity; the open loop
	// then sends Poisson arrivals at a third of it, so the daemon is
	// never overloaded however fast the host is.
	probeClosed = time.Second
	probeOpen   = 2 * time.Second
	// Queries draw sources from Zipf(zipfS) over original IDs, so
	// requests share work; every sampleEvery-th answer is checked
	// against the pull baseline.
	zipfS       = 1.5
	sampleEvery = 8
)

var queryOpts = serve.JobOptions{Damping: damping, Tol: pprTol, RedistributeDangling: true}

func queryPageRankOptions() analytics.PageRankOptions {
	return analytics.PageRankOptions{Damping: queryOpts.Damping, Tol: queryOpts.Tol,
		MaxIters: queryOpts.MaxIters, RedistributeDangling: queryOpts.RedistributeDangling}
}

// serveProbe runs the probe and sets the serve, load-generator and
// PPR-lane metrics in m. It returns the answers attempted and failed.
func serveProbe(cfg runConfig, m metricSet, tr *tracer) (attempted, failed int, err error) {
	pool := sched.NewPool(cfg.Workers)
	defer pool.Close()
	spec := rmatInput(probeScale, 16, cfg.Seed)
	g, err := loadInput(cfg.Dir, spec, pool)
	if err != nil {
		return 0, 0, err
	}
	pid := tr.begin("probe.serve", 0)
	defer tr.end(pid)
	ih, err := core.BuildWith(g, core.Params{}.ForBatch(probeLanes), pool)
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(cfg.Dir, "probe-serve.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		return 0, 0, err
	}
	s, err := serve.New(serve.Config{
		EnginePath: path,
		Workers:    cfg.Workers,
		Lanes:      probeLanes,
		FillWindow: 2 * time.Millisecond,
		QueueLimit: 64,
		Query:      queryOpts,
	})
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // a hard stop after the timeout is fine at teardown
		s.Close()
	}()
	h := s.Handler()

	// Warm up with one full batch, then measure.
	warm, _ := closedLoop(h, cfg.Seed<<8, g.NumV, probeLanes, time.Nanosecond, nil, 0)
	before := s.Metrics()
	pc := tr.begin("probe.serve.closed", pid)
	closed, wall := closedLoop(h, cfg.Seed<<16, g.NumV, 2*probeLanes, probeClosed, tr, pc)
	tr.end(pc)
	converged := 0
	for _, a := range closed {
		if a.ok {
			converged++
		}
	}
	qps := float64(converged) / wall.Seconds()
	if converged == 0 {
		return 0, 0, fmt.Errorf("no converged answers in the closed loop")
	}
	po := tr.begin("probe.serve.open", pid)
	rng := xrand.New(cfg.Seed)
	zipf := xrand.NewZipf(xrand.New(cfg.Seed^0x5eed), zipfS, 1, uint64(g.NumV))
	open := openLoop(h, zipf, rng, qps/3, probeOpen, tr, po)
	tr.end(po)
	after := s.Metrics()

	all := append(append(warm, open...), closed...)
	if failed, err = checkAnswers(all, sampleEvery, g, pool); err != nil {
		return 0, 0, err
	}
	var req []float64
	for _, sp := range tr.children("serve.request", po) {
		req = append(req, float64(sp.dur())/1e6)
	}
	var lateMax time.Duration
	for _, a := range open {
		lateMax = max(lateMax, a.late)
	}
	batches := after.Batches - before.Batches
	var fill int64
	for i := range after.LaneFill {
		fill += int64(i+1) * (after.LaneFill[i] - before.LaneFill[i])
	}
	m.set("serve.request_ms", median(req))
	m.set("serve.batches", float64(batches))
	m.set("serve.lane_fill_mean", float64(fill)/float64(max(batches, 1)))
	m.set("serve.shed", float64(after.Shed-before.Shed))
	m.set("serve.deadline_partials", float64(after.Deadline-before.Deadline))
	m.set("serve.closed_qps", qps)
	m.set("loadgen.late_ms_max", float64(lateMax)/1e6)

	// Full-width lane batches over the served engine file.
	ef, outDeg, err := openEngine(path, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	defer ef.Close()
	if err := pprLaneLayers(m, cfg.Seed, ef.IHTL(), outDeg, pool, tr, pid); err != nil {
		return 0, 0, err
	}
	return len(all), failed, nil
}

// rankEntry and pprReply mirror the parts of the /v1/ppr response body
// the checks read.
type rankEntry struct {
	Vertex uint32  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

type pprReply struct {
	Converged bool        `json:"converged"`
	Top       []rankEntry `json:"top"`
}

// answer is one request's outcome.
type answer struct {
	src  uint32
	ok   bool // 200 and converged
	top  []rankEntry
	late time.Duration // open loop: how late the generator sent it
}

// ask sends one POST /v1/ppr through the handler, with no socket.
func ask(h http.Handler, src uint32, tr *tracer, parent int) answer {
	body, _ := json.Marshal(map[string]uint32{"source": src}) // cannot fail for this type
	req := httptest.NewRequest(http.MethodPost, "/v1/ppr", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin("serve.request", parent)
	h.ServeHTTP(rec, req)
	tr.end(id)
	a := answer{src: src}
	var r pprReply
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &r) == nil {
		a.ok, a.top = r.Converged, r.Top
	}
	return a
}

// openLoop sends Poisson arrivals at rate for dur and notes how late
// the generator sent each one.
func openLoop(h http.Handler, zipf *xrand.Zipf, rng *xrand.Xoshiro256, rate float64, dur time.Duration, tr *tracer, parent int) []answer {
	// At a third of capacity a few requests are in flight; the cap
	// only guards memory if the daemon stalls, and a request refused
	// by it counts as failed.
	const maxInFlight = 256
	sem := make(chan struct{}, maxInFlight)
	var mu sync.Mutex
	var out []answer
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second)))
		if due.Sub(start) > dur {
			break
		}
		time.Sleep(time.Until(due))
		src := uint32(zipf.Uint64())
		late := time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			mu.Lock()
			out = append(out, answer{src: src, late: late})
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(src uint32, due time.Time, late time.Duration) {
			defer wg.Done()
			a := ask(h, src, tr, parent)
			a.late = late
			<-sem
			mu.Lock()
			out = append(out, a)
			mu.Unlock()
		}(src, due, late)
	}
	wg.Wait()
	return out
}

// closedLoop runs callers that each wait for a reply before sending the
// next query, until dur has passed (each sends at least one); it
// returns the answers and the wall time until the last caller
// finished.
func closedLoop(h http.Handler, seed uint64, n int, callers int, dur time.Duration, tr *tracer, parent int) ([]answer, time.Duration) {
	var mu sync.Mutex
	var out []answer
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			zipf := xrand.NewZipf(xrand.New(seed+uint64(c)+1), zipfS, 1, uint64(n))
			for {
				a := ask(h, uint32(zipf.Uint64()), tr, parent)
				mu.Lock()
				out = append(out, a)
				mu.Unlock()
				if time.Since(start) >= dur {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// pprReference computes personalized PageRank for each source with the
// pull baseline at the served tolerance, in original ID space.
func pprReference(g *graph.Graph, pool *sched.Pool, sources []uint32) (map[uint32][]float64, error) {
	pull, err := newPull(g, pool)
	if err != nil {
		return nil, err
	}
	outDeg := make([]int, g.NumV)
	for v := range outDeg {
		outDeg[v] = g.OutDegree(graph.VID(v))
	}
	opt := queryPageRankOptions()
	ref := make(map[uint32][]float64, len(sources))
	const width = 8
	for lo := 0; lo < len(sources); lo += width {
		hi := min(lo+width, len(sources))
		lanes := make([]analytics.LaneRequest, 0, hi-lo)
		for _, s := range sources[lo:hi] {
			lanes = append(lanes, analytics.LaneRequest{Source: int(s)})
		}
		var laneErr error
		err := analytics.RunPPRLanes(context.Background(), pull, outDeg, pool, lanes, opt, func(r analytics.LaneResult) {
			if !r.Converged() {
				laneErr = fmt.Errorf("reference for source %d did not converge", r.Source)
			}
			ref[uint32(r.Source)] = r.Ranks
		})
		if err != nil {
			return nil, err
		}
		if laneErr != nil {
			return nil, laneErr
		}
	}
	return ref, nil
}

// topMatches reports whether a served top-m list is the reference's top
// m within the query tolerance: every listed rank matches the
// reference, and no listed vertex ranks below the reference's m-th.
func topMatches(top []rankEntry, ref []float64) bool {
	m := min(10, len(ref))
	if len(top) != m {
		return false
	}
	sorted := append([]float64(nil), ref...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	kth := sorted[m-1]
	for _, e := range top {
		if int(e.Vertex) >= len(ref) {
			return false
		}
		r := ref[e.Vertex]
		if math.Abs(e.Rank-r) > pprTol || r < kth-pprTol {
			return false
		}
	}
	return true
}

// checkAnswers counts the failed answers: not 200 or not converged, or
// a sampled (every every-th) answer that disagrees with the pull
// baseline.
func checkAnswers(answers []answer, every int, g *graph.Graph, pool *sched.Pool) (int, error) {
	failed := 0
	seen := map[uint32]bool{}
	var sources []uint32
	for i, a := range answers {
		if !a.ok {
			failed++
			continue
		}
		if i%every == 0 && !seen[a.src] {
			seen[a.src] = true
			sources = append(sources, a.src)
		}
	}
	ref, err := pprReference(g, pool, sources)
	if err != nil {
		return 0, err
	}
	for i, a := range answers {
		if a.ok && i%every == 0 && !topMatches(a.top, ref[a.src]) {
			failed++
		}
	}
	return failed, nil
}

// pprLaneLayers runs full-width PPR lane batches of Zipf sources over
// an engine configured as the daemon configures its own.
func pprLaneLayers(m metricSet, seed uint64, ih *core.IHTL, outDeg []int, pool *sched.Pool, tr *tracer, parent int) error {
	eng, err := core.NewEngineOpts(ih, pool, core.EngineOptions{
		StaticFlipped: true, Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	if err != nil {
		return err
	}
	opt := queryPageRankOptions()
	zipf := xrand.NewZipf(xrand.New(seed^0xba7c), zipfS, 1, uint64(ih.NumV))
	var batchMs, iters, nsLane []float64
	for b := 0; b < 8; b++ {
		lanes := make([]analytics.LaneRequest, probeLanes)
		for j := range lanes {
			lanes[j].Source = int(ih.NewID[zipf.Uint64()])
		}
		te := &tracedEngine{e: eng, tr: tr}
		te.parent = tr.begin("analytics.ppr_lanes", parent)
		t0 := time.Now()
		err := analytics.RunPPRLanes(context.Background(), te, outDeg, pool, lanes, opt, func(r analytics.LaneResult) {
			iters = append(iters, float64(r.Iters))
		})
		batchMs = append(batchMs, float64(time.Since(t0))/1e6)
		tr.end(te.parent)
		if err != nil {
			return err
		}
		for _, d := range te.durs {
			nsLane = append(nsLane, float64(d.Nanoseconds())/float64(ih.NumE)/float64(probeLanes))
		}
	}
	m.set("analytics.ppr_batch_ms", median(batchMs))
	m.set("analytics.ppr_iters_mean", mean(iters))
	m.set("core.step_batch_ns_per_edge_lane", median(nsLane))
	return nil
}
