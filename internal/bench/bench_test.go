package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smallEnv(t *testing.T) (*Env, *bytes.Buffer) {
	t.Helper()
	env := NewEnv(4)
	t.Cleanup(env.Close)
	env.Iters = 2
	var buf bytes.Buffer
	env.Out = &buf
	return env, &buf
}

func TestRegistryLoadsAndIsDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry generation is slow")
	}
	names := map[string]bool{}
	for _, d := range Registry() {
		if names[d.Name] {
			t.Fatalf("duplicate dataset name %s", d.Name)
		}
		names[d.Name] = true
	}
	// Load just the two smallest full-registry datasets as a smoke
	// test (lvjrnl is the smallest social, sk the smallest web).
	for _, name := range []string{"lvjrnl", "sk"} {
		d, err := ByName(Registry(), name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Load twice: memoised.
		g2, _ := d.Load()
		if g2 != g {
			t.Fatal("dataset not memoised")
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(SmallRegistry(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunFig7SmallProducesSaneRow(t *testing.T) {
	env, buf := smallEnv(t)
	d := SmallRegistry()[0]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFig7(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	if row.Pull <= 0 || row.IHTL <= 0 || row.PushAtomic <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	if row.Preprocess <= 0 {
		t.Fatal("no preprocessing time recorded")
	}
	RenderFig7(env, []Fig7Row{row})
	out := buf.String()
	for _, want := range []string{"Figure 7", "Table 2", d.Name} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllExperimentsOnSmallData(t *testing.T) {
	env, buf := smallEnv(t)
	// One small social + one small web keep the full sweep fast.
	datasets := []*Dataset{SmallRegistry()[0], SmallRegistry()[2]}
	if err := RunAll(env, datasets); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 7", "Table 2", "Table 3", "Table 4",
		"Figure 8", "Table 5", "Table 6", "Figure 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

func TestStepJSONRoundTrip(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[0]
	rep, err := RunStepJSON(env, []*Dataset{d})
	if err != nil {
		t.Fatal(err)
	}
	kernels := StepKernels()
	if len(rep.Results) != len(kernels) {
		t.Fatalf("%d results, want one per kernel (%d)", len(rep.Results), len(kernels))
	}
	for i, r := range rep.Results {
		if r.Kernel != kernels[i] {
			t.Fatalf("result %d is kernel %q, want %q", i, r.Kernel, kernels[i])
		}
		if r.Dataset != d.Name || r.Edges <= 0 || r.NsPerStep <= 0 || r.NsPerEdge <= 0 {
			t.Fatalf("implausible measurement: %+v", r)
		}
		if r.BytesPerEdge <= 0 {
			t.Fatalf("%s: missing bytes_per_edge: %+v", r.Kernel, r)
		}
		switch r.Kernel {
		case "ihtl-fused", "ihtl-pull-degree":
			if r.SparseNs <= 0 {
				t.Fatalf("%s: missing sparse_ns: %+v", r.Kernel, r)
			}
		default:
			if r.SparseNs != 0 {
				t.Fatalf("%s: baseline record grew phase clocks: %+v", r.Kernel, r)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "results", "BENCH_step.json")
	if err := WriteStepJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back StepReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != env.Pool.Workers() || len(back.Results) != len(rep.Results) {
		t.Fatalf("report changed in round trip: %+v", back)
	}
}

// TestStepJSONBackCompat pins the schema extension: reports written
// before the batch sweep existed (no batch_k / edges_per_sec_per_vec
// fields) must still parse, with the batch fields at zero, and scalar
// records must still serialise without them.
func TestStepJSONBackCompat(t *testing.T) {
	old := []byte(`{
  "workers": 1, "gomaxprocs": 1, "iters": 4,
  "results": [
    {"dataset": "lvjrnl-s", "kernel": "pull", "vertices": 2048,
     "edges": 24576, "ns_per_step": 100000, "ns_per_edge": 4.069}
  ]
}`)
	var rep StepReport
	if err := json.Unmarshal(old, &rep); err != nil {
		t.Fatalf("pre-batch report no longer parses: %v", err)
	}
	r := rep.Results[0]
	if r.BatchK != 0 || r.EdgesPerSecPerVec != 0 {
		t.Fatalf("scalar record grew batch fields: %+v", r)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("batch_k")) || bytes.Contains(out, []byte("edges_per_sec_per_vec")) {
		t.Fatalf("scalar record serialises batch fields: %s", out)
	}
}

func TestAppendBatchSweep(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[0]
	rep := &StepReport{Workers: env.Pool.Workers(), Iters: env.Iters}
	ks := []int{1, 2}
	if err := AppendBatchSweep(rep, env, []*Dataset{d}, ks); err != nil {
		t.Fatal(err)
	}
	if want := len(BatchKernels()) * len(ks); len(rep.Results) != want {
		t.Fatalf("%d records, want %d", len(rep.Results), want)
	}
	for _, r := range rep.Results {
		if r.BatchK < 1 || r.NsPerStep <= 0 || r.EdgesPerSecPerVec <= 0 {
			t.Fatalf("implausible batch record: %+v", r)
		}
		// ns_per_edge is per edge-LANE and edges_per_sec_per_vec its
		// reciprocal throughput; check internal consistency.
		lanes := float64(r.Edges) * float64(r.BatchK)
		if math.Abs(r.NsPerEdge-float64(r.NsPerStep)/lanes) > 1e-9 {
			t.Fatalf("ns_per_edge inconsistent: %+v", r)
		}
		if math.Abs(r.EdgesPerSecPerVec-lanes/float64(r.NsPerStep)*1e9) > 1e-3 {
			t.Fatalf("edges_per_sec_per_vec inconsistent: %+v", r)
		}
	}
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batchEngine(env, g, "simd-batch", 2); err == nil {
		t.Fatal("unknown batch kernel accepted")
	}
}

func TestStepJSONUnknownKernel(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[0]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stepEngine(env, g, "simd"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	env, _ := smallEnv(t)
	if err := Run(env, "fig42", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig8SkipsGOrderAboveCap(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[1]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFig8(env, d.Name, g, 1 /* cap below any graph */)
	if err != nil {
		t.Fatal(err)
	}
	foundSkip := false
	for _, e := range row.Entries {
		if e.Name == "gorder" && e.Skipped {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Fatal("gorder not skipped despite cap")
	}
}

func TestTable6SweepsFourPoints(t *testing.T) {
	env, _ := smallEnv(t)
	d := SmallRegistry()[2]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunTable6(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Times) != len(Table6Labels()) {
		t.Fatalf("sweep has %d points, want %d", len(row.Times), len(Table6Labels()))
	}
}

func TestTableRenderAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := &Table{Title: "T", Header: []string{"a", "bbbb"}}
	tb.Add("xxxxx", 1)
	tb.Add("y", 2.5)
	tb.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), buf.String())
	}
	// Render to nil must not panic.
	tb.Render(nil)
}

func TestRenderCSV(t *testing.T) {
	var buf bytes.Buffer
	tb := &Table{Title: "T", Header: []string{"a", "b"}}
	tb.Add("plain", `quote"and,comma`)
	RenderCSV(tb, &buf)
	out := buf.String()
	want := "# T\na,b\nplain,\"quote\"\"and,comma\"\n"
	if out != want {
		t.Fatalf("CSV output %q, want %q", out, want)
	}
	RenderCSV(tb, nil) // must not panic
}

func TestEnvCSVMode(t *testing.T) {
	env, buf := smallEnv(t)
	env.CSV = true
	d := SmallRegistry()[0]
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunTable4(env, d.Name, g)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable4(env, []Table4Row{row})
	if !strings.Contains(buf.String(), "Dataset,CSC (MiB)") {
		t.Fatalf("CSV mode not applied: %q", buf.String())
	}
}

// TestHostInfoInReports checks every report constructor stamps host
// metadata.
func TestHostInfoInReports(t *testing.T) {
	h := CollectHost(3)
	if h.GoVersion == "" || h.NumCPU < 1 || h.GoMaxProcs < 1 || h.Workers != 3 {
		t.Fatalf("implausible host info: %+v", h)
	}
	env, _ := smallEnv(t)
	d := SmallRegistry()[0]
	step, err := RunStepJSON(env, []*Dataset{d})
	if err != nil {
		t.Fatal(err)
	}
	if step.Host == nil || step.Host.Workers != env.Pool.Workers() {
		t.Fatalf("step report missing host metadata: %+v", step.Host)
	}
}
