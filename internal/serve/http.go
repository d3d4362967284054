// HTTP surface of the daemon:
//
//	POST /v1/ppr        {"source": v, "timeout_ms": t?, "top": m?, "ranks": bool?}
//	POST /v1/jobs       {"algo": "pagerank"|"ppr", "sources": [..]?, "opts": {..}?}
//	GET  /v1/jobs/{id}  ?ranks=1&lane=j&top=m
//	GET  /healthz
//	GET  /varz
//
// Shed requests answer 429 with Retry-After; deadline-expired queries
// answer 200 with converged=false and the partial ranks (degraded
// mode). POST bodies over maxBodyBytes answer 413; a negative top or a
// source outside the graph answers 400, and timeout_ms is capped at
// maxQueryTimeout. Every request is logged structurally (method, path,
// status, duration).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Handler returns the daemon's HTTP mux wrapped in the request log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ppr", s.handlePPR)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return s.logRequests(mux)
}

// statusRecorder captures the status code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur", time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a POST body. A query body is well under 1 KiB and
// 1 MiB still holds a PPR job of over 100k sources, so the cap only
// bounds what a misbehaving client can make the daemon buffer.
const maxBodyBytes = 1 << 20

var errBodyTooLarge = errors.New("serve: request body too large")

// decodeBody decodes r's JSON body into v, reading at most
// maxBodyBytes, and answers the request itself on failure: 413 for a
// body over the cap (a declared Content-Length over it is refused
// before any read), 400 for a malformed one. It reports whether v was
// decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > maxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		return true
	}
	return false
}

// maxQueryTimeout caps a query's client-chosen deadline (timeout_ms),
// so no client can hold a lane, or overflow the deadline arithmetic,
// with an arbitrarily large value.
const maxQueryTimeout = time.Minute

var errBadTop = errors.New("serve: bad top")

// pprRequest is the query body. Top selects how many of the highest
// ranks to return (default 10, never negative); Ranks requests the
// full dense vector (heavyweight — meant for verification harnesses,
// not serving).
type pprRequest struct {
	Source    uint32 `json:"source"`
	TimeoutMS int    `json:"timeout_ms"`
	Top       int    `json:"top"`
	Ranks     bool   `json:"ranks"`
}

// rankEntry is one vertex in the top-M answer.
type rankEntry struct {
	Vertex uint32  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// pprResponse wraps PPRAnswer for the wire, with the rank payload
// trimmed to top-M unless the full vector was requested.
type pprResponse struct {
	PPRAnswer
	Top   []rankEntry `json:"top,omitempty"`
	Ranks []float64   `json:"ranks,omitempty"`
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	var req pprRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Top < 0 {
		writeErr(w, http.StatusBadRequest, errBadTop)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(min(req.TimeoutMS, int(maxQueryTimeout/time.Millisecond))) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ans, err := s.QueryPPR(ctx, req.Source)
	var srcErr *SourceError
	switch {
	case errors.As(err, &srcErr):
		writeErr(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, context.Canceled):
		// The requester went away; nobody is reading this.
		writeErr(w, 499, err)
		return
	case errors.Is(err, errDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := pprResponse{PPRAnswer: ans}
	top := req.Top
	if top == 0 {
		top = 10
	}
	resp.Top = topRanks(ans.Ranks, top)
	if req.Ranks {
		resp.Ranks = ans.Ranks
	}
	writeJSON(w, http.StatusOK, resp)
}

// topRanks selects the m highest ranks, ties broken by ascending
// vertex ID so the answer is deterministic.
func topRanks(ranks []float64, m int) []rankEntry {
	if m > len(ranks) {
		m = len(ranks)
	}
	idx := make([]uint32, len(ranks))
	for v := range idx {
		idx[v] = uint32(v)
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := ranks[idx[a]], ranks[idx[b]]
		if ra != rb {
			return ra > rb
		}
		return idx[a] < idx[b]
	})
	out := make([]rankEntry, m)
	for i := 0; i < m; i++ {
		out[i] = rankEntry{Vertex: idx[i], Rank: ranks[idx[i]]}
	}
	return out
}

type jobCreateRequest struct {
	Algo    string     `json:"algo"`
	Sources []uint32   `json:"sources"`
	Opts    JobOptions `json:"opts"`
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id, err := s.StartJob(req.Algo, req.Sources, req.Opts)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

type jobResponse struct {
	JobStatus
	Top   []rankEntry `json:"top,omitempty"`
	Ranks []float64   `json:"ranks,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.JobStatusByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	resp := jobResponse{JobStatus: st}
	if st.Status == JobDone {
		q := r.URL.Query()
		lane, _ := strconv.Atoi(q.Get("lane")) //nolint:errcheck // empty → lane 0
		ranks, err := s.JobRanks(id, lane)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		top := 10
		if t := q.Get("top"); t != "" {
			if top, err = strconv.Atoi(t); err != nil || top < 0 {
				writeErr(w, http.StatusBadRequest, errBadTop)
				return
			}
		}
		resp.Top = topRanks(ranks, top)
		if v := q.Get("ranks"); v == "1" || strings.EqualFold(v, "true") {
			resp.Ranks = ranks
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
