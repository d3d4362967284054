package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// failingBody fails the test if the handler reads it.
type failingBody struct{ t *testing.T }

func (b failingBody) Read([]byte) (int, error) {
	b.t.Error("handler read a body whose declared length is over the cap")
	return 0, io.EOF
}

// TestServeBodyCap: both POST endpoints answer 413 to a body over
// maxBodyBytes. A declared Content-Length over the cap is refused
// without reading the body; a body streamed without a length is cut
// off at the cap.
func TestServeBodyCap(t *testing.T) {
	s := startServer(t, testConfig(testEngineFile(t, 6, 1, 3)))
	h := s.Handler()
	for _, path := range []string{"/v1/ppr", "/v1/jobs"} {
		req := httptest.NewRequest(http.MethodPost, path, failingBody{t})
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s, declared length: status %d, want 413", path, rec.Code)
		}

		stream := io.MultiReader(
			strings.NewReader(`{"algo": "ppr", "sources": [`),
			strings.NewReader(strings.Repeat("1,", maxBodyBytes/2)),
			strings.NewReader(`1]}`))
		req = httptest.NewRequest(http.MethodPost, path, stream)
		req.ContentLength = -1
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s, streamed: status %d, want 413", path, rec.Code)
		}
	}
}

// TestServeRejectsV3EngineFile: the daemon refuses a version-3 (sharded
// container) engine file at startup with an error naming the version,
// and does not leave it mapped.
func TestServeRejectsV3EngineFile(t *testing.T) {
	path := testEngineFile(t, 6, 1, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 3)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(path))
	if s != nil || err == nil || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("New on a version-3 file: server %v, err %v; want an unsupported version 3 error", s, err)
	}
	if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
		t.Fatal("rejected version-3 engine file left mapped")
	}
}

// postPPR sends one /v1/ppr body straight to the handler and returns
// the status and decoded answer.
func postPPR(t *testing.T, h http.Handler, body string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ppr", strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: undecodable answer %q: %v", body, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestServePPRNegativeTop: a negative top is a client error, answered
// 400 before the query is admitted, not a handler panic.
func TestServePPRNegativeTop(t *testing.T) {
	s := startServer(t, testConfig(testEngineFile(t, 6, 1, 3)))
	if code, out := postPPR(t, s.Handler(), `{"source": 1, "top": -1}`); code != http.StatusBadRequest {
		t.Fatalf("top -1: status %d (%v), want 400", code, out)
	}
}

// TestServePPRSourceOutOfRange: a source outside the served graph is a
// client error. QueryPPR reports it as a *SourceError, which the
// handler answers with 400.
func TestServePPRSourceOutOfRange(t *testing.T) {
	s := startServer(t, testConfig(testEngineFile(t, 6, 1, 3)))
	n := s.n
	var srcErr *SourceError
	if _, err := s.QueryPPR(context.Background(), uint32(n)); !errors.As(err, &srcErr) || srcErr.NumV != n {
		t.Fatalf("QueryPPR(%d): err = %v, want a *SourceError", n, err)
	}
	body := fmt.Sprintf(`{"source": %d}`, n)
	if code, out := postPPR(t, s.Handler(), body); code != http.StatusBadRequest {
		t.Fatalf("source %d of %d: status %d (%v), want 400", n, n, code, out)
	}
}

// TestServePPRTimeoutCapped: timeout_ms is capped at maxQueryTimeout
// before it becomes a time.Duration. 2^60 ms times a millisecond wraps
// to a zero duration, which would expire the query before admission;
// capped, the query converges.
func TestServePPRTimeoutCapped(t *testing.T) {
	s := startServer(t, testConfig(testEngineFile(t, 6, 1, 3)))
	code, out := postPPR(t, s.Handler(), `{"source": 1, "timeout_ms": 1152921504606846976}`)
	if code != http.StatusOK || out["converged"] != true {
		t.Fatalf("timeout_ms 2^60: status %d, answer %v; want 200 and a converged answer", code, out)
	}
}
