package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ihtl/internal/sched"
)

func TestRankGateCountsPerturbedRanks(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	dir := t.TempDir()
	for _, mmap := range []bool{false, true} {
		w := prWorkload{input: rmatInput(12, 16, 3), mmap: mmap}
		g, err := loadInput(dir, w.input, pool)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := setupPR(w, g.NumV, g.Edges(nil), pool, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solvePR(pe, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		pull, err := newPull(g, pool)
		if err != nil {
			t.Fatal(err)
		}
		if r := pullResidual(pull, g, s.ranks); !rankCheck(pull, g, s) {
			t.Fatalf("mmap=%v: converged ranks fail the gate (residual %g)", mmap, r)
		}
		top := 0
		for v := range s.ranks {
			if s.ranks[v] > s.ranks[top] {
				top = v
			}
		}
		bad := s
		bad.ranks = append([]float64(nil), s.ranks...)
		bad.ranks[top] *= 1.001
		if rankCheck(pull, g, bad) {
			t.Fatalf("mmap=%v: a 0.1%% error in the top rank passes the gate (residual %g)", mmap, pullResidual(pull, g, bad.ranks))
		}
		unconverged := s
		unconverged.delta = prTol
		if rankCheck(pull, g, unconverged) {
			t.Fatalf("mmap=%v: an unconverged solve passes the gate", mmap)
		}
		pe.close()
	}
}

func TestServeGateCountsWrongAnswers(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	g, err := loadInput(t.TempDir(), rmatInput(11, 16, 5), pool)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pprReference(g, pool, []uint32{3})
	if err != nil {
		t.Fatal(err)
	}
	r := ref[3]
	idx := make([]int, len(r))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] > r[idx[b]] })
	good := make([]rankEntry, 10)
	for i := range good {
		good[i] = rankEntry{Vertex: uint32(idx[i]), Rank: r[idx[i]]}
	}
	if !topMatches(good, r) {
		t.Fatal("the reference's own top 10 does not match")
	}
	perturbed := append([]rankEntry(nil), good...)
	perturbed[4].Rank += 1e-3 * perturbed[4].Rank
	wrongVertex := append([]rankEntry(nil), good...)
	wrongVertex[9] = rankEntry{Vertex: uint32(idx[len(idx)-1]), Rank: r[idx[len(idx)-1]]}
	for name, top := range map[string][]rankEntry{"perturbed": perturbed, "wrong vertex": wrongVertex, "short": good[:9]} {
		if topMatches(top, r) {
			t.Errorf("%s answer matches the reference", name)
		}
	}

	// Answers 0 and 2 are sampled (every 2nd); 3 is unsampled but did
	// not converge, so it counts regardless.
	answers := []answer{
		{src: 3, ok: true, top: good},
		{src: 3, ok: true, top: perturbed},
		{src: 3, ok: true, top: perturbed},
		{src: 3, ok: false},
	}
	failed, err := checkAnswers(answers, 2, g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Fatalf("checkAnswers counted %d failures, want 2", failed)
	}
}

// TestServeProbeIsClean runs the serve probe end to end and checks
// that every answer passes and its metrics are reported.
func TestServeProbeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon for three seconds")
	}
	cfg := runConfig{Seed: 9, Dir: t.TempDir(), Workers: 2}
	m := metricSet{}
	attempted, failed, err := serveProbe(cfg, m, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || attempted == 0 {
		t.Fatalf("%d of %d answers failed", failed, attempted)
	}
	for n := range perLayerUnits {
		if strings.HasPrefix(n, "serve.") || strings.HasPrefix(n, "loadgen.") || strings.Contains(n, "ppr") || strings.Contains(n, "batch") {
			if _, ok := m[n]; !ok {
				t.Errorf("metric %s not reported", n)
			}
		}
	}
}

func TestLoadInputRegeneratesBadCache(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	dir := t.TempDir()
	spec := rmatInput(9, 8, 11)
	want, err := loadInput(dir, spec, pool)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spec.Key+".graph")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn file and a file with a corrupted neighbour ID must both
	// be regenerated.
	for _, bad := range [][]byte{data[:len(data)/2], corruptLast(data)} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadInput(dir, spec, pool)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumV != want.NumV || got.NumE != want.NumE {
			t.Fatalf("reloaded %v, want %v", got, want)
		}
		for i := range want.InNbrs {
			if got.InNbrs[i] != want.InNbrs[i] {
				t.Fatalf("in-neighbour %d differs after regeneration", i)
			}
		}
	}
}

func corruptLast(data []byte) []byte {
	out := append([]byte(nil), data...)
	for i := len(out) - 4; i < len(out); i++ {
		out[i] = 0xff
	}
	return out
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s [%s]: program has unit %q (known %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}
