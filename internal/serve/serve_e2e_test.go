package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/sched"
)

// TestServeE2EKillDashNine is the full crash-tolerance drill against
// the real binary: build ihtlserve, start it on a scale-N engine,
// launch a throttled PageRank job, SIGKILL the process mid-job (the
// one signal no handler can drain), restart over the same spool, and
// require the finished ranks to be bit-for-bit the uninterrupted
// reference. Gated behind IHTL_SERVE_E2E_SCALE (the CI serve-e2e job
// sets 14) because it shells out to the go tool.
func TestServeE2EKillDashNine(t *testing.T) {
	scaleEnv := os.Getenv("IHTL_SERVE_E2E_SCALE")
	if scaleEnv == "" {
		t.Skip("set IHTL_SERVE_E2E_SCALE to run the kill -9 e2e")
	}
	scale, err := strconv.Atoi(scaleEnv)
	if err != nil || scale < 6 {
		t.Fatalf("bad IHTL_SERVE_E2E_SCALE %q", scaleEnv)
	}
	const workers = 4
	jobBody := `{"algo": "pagerank", "opts": {"max_iters": 50, "tol": -1, "redistribute_dangling": true}}`

	dir := t.TempDir()
	enginePath := testEngineFile(t, scale, 1, 97)
	spool := filepath.Join(dir, "spool")
	bin := filepath.Join(dir, "ihtlserve")
	build := exec.Command("go", "build", "-o", bin, "ihtl/cmd/ihtlserve")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ihtlserve: %v\n%s", err, out)
	}

	// First run: start, launch the job, kill -9 mid-flight.
	proc1, base1 := startDaemon(t, bin, enginePath, spool, workers, "-job-iter-delay", "25ms")
	resp := postJSON(t, base1+"/v1/jobs", jobBody)
	var created struct{ ID string }
	if err := json.Unmarshal(resp, &created); err != nil || created.ID == "" {
		t.Fatalf("job create: %v %s", err, resp)
	}
	waitJobIter(t, base1, created.ID, 6)
	if err := proc1.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	proc1.Wait() //nolint:errcheck // killed

	// Second run: the spool must resume the job and finish it.
	proc2, base2 := startDaemon(t, bin, enginePath, spool, workers)
	defer func() {
		proc2.Process.Kill() //nolint:errcheck // teardown
		proc2.Wait()         //nolint:errcheck // teardown
	}()
	var varz Varz
	if err := json.Unmarshal(getBody(t, base2+"/varz"), &varz); err != nil {
		t.Fatal(err)
	}
	if varz.JobsResumed != 1 {
		t.Fatalf("jobs_resumed = %d after restart, want 1", varz.JobsResumed)
	}
	waitJobDone(t, base2, created.ID)
	var final struct {
		Iter  int       `json:"iter"`
		Ranks []float64 `json:"ranks"`
	}
	if err := json.Unmarshal(getBody(t, base2+"/v1/jobs/"+created.ID+"?ranks=1&top=0"), &final); err != nil {
		t.Fatal(err)
	}
	if final.Iter != 50 || len(final.Ranks) == 0 {
		t.Fatalf("final job state iter=%d ranks=%d", final.Iter, len(final.Ranks))
	}

	// Uninterrupted reference, same worker count and engine options
	// as the daemon's job path.
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
	res, err := analytics.RunPageRank(eng, ih.OutDegrees(), pool,
		analytics.PageRankOptions{MaxIters: 50, Tol: -1, RedistributeDangling: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, ih.NumV)
	for nv, r := range res.Ranks {
		want[ih.OldID[nv]] = r
	}
	if len(final.Ranks) != len(want) {
		t.Fatalf("rank vector length %d, want %d", len(final.Ranks), len(want))
	}
	for v := range want {
		if math.Float64bits(final.Ranks[v]) != math.Float64bits(want[v]) {
			t.Fatalf("rank[%d] = %v resumed-across-kill, %v uninterrupted — not bit-for-bit", v, final.Ranks[v], want[v])
		}
	}
}

// startDaemon launches the built binary on a random port and waits
// for its listening handshake on stdout.
func startDaemon(t *testing.T, bin, engine, spool string, workers int, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{
		"-engine", engine, "-spool", spool, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers), "-checkpoint-every", "2",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var line []byte
	buf := make([]byte, 1)
	deadline := time.Now().Add(30 * time.Second)
	for !bytes.HasSuffix(line, []byte("\n")) {
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck // teardown
			t.Fatalf("daemon never announced its address: %q", line)
		}
		if n, _ := stdout.Read(buf); n > 0 {
			line = append(line, buf[0])
		}
	}
	fields := strings.Fields(strings.TrimSpace(string(line)))
	addr := fields[len(fields)-1]
	base := "http://" + addr
	for time.Now().Before(deadline) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return cmd, base
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill() //nolint:errcheck // teardown
	t.Fatalf("daemon at %s never became healthy", base)
	return nil, ""
}

func postJSON(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if resp.StatusCode >= 300 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func jobStatusHTTP(t *testing.T, base, id string) (string, int) {
	t.Helper()
	var st struct {
		Status string `json:"status"`
		Iter   int    `json:"iter"`
	}
	if err := json.Unmarshal(getBody(t, base+"/v1/jobs/"+id), &st); err != nil {
		t.Fatal(err)
	}
	return st.Status, st.Iter
}

func waitJobIter(t *testing.T, base, id string, iter int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, got := jobStatusHTTP(t, base, id)
		if status == JobDone {
			t.Fatal("job finished before the kill window; raise -job-iter-delay")
		}
		if got >= iter {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached iter %d (at %d)", iter, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _ := jobStatusHTTP(t, base, id)
		switch status {
		case JobDone:
			return
		case JobFailed:
			t.Fatalf("job failed after restart")
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished (status %s)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleRoot walks up to go.mod (the e2e builds the daemon from the
// module, not the package dir).
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test dir")
		}
		dir = parent
	}
}
