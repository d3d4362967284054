// Command ihtlserve is the ranking-as-a-service daemon: it mmap-loads
// a pre-built engine file and serves personalized-PageRank queries
// (coalesced into batched SpMV traversals) and checkpoint-backed
// background ranking jobs over HTTP.
//
// Usage:
//
//	ihtlserve -engine graph.ihtl2 -spool /var/lib/ihtl/spool -addr :8372
//
// Queries:
//
//	curl -s localhost:8372/v1/ppr -d '{"source": 42}'
//	curl -s localhost:8372/v1/jobs -d '{"algo": "pagerank"}'
//	curl -s localhost:8372/v1/jobs/<id>
//	curl -s localhost:8372/varz
//
// SIGTERM/SIGINT drain in-flight queries and park running jobs at
// their latest checkpoint (they resume on the next start); if the
// drain exceeds -drain-timeout, everything in flight is cancelled
// hard. A kill -9 loses at most one checkpoint interval of job
// progress: the next start resumes from the spool bit-for-bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ihtl/internal/serve"
)

// Connection bounds. A client has readHeaderTimeout to send its
// request headers, so a slow-header client cannot pin a connection,
// and an idle keep-alive connection is closed after idleTimeout. No
// write timeout is set: the per-query deadline (-timeout) and the
// drain deadline already bound how long a response can take.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer serves h with the connection bounds above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		enginePath = flag.String("engine", "", "serialised engine graph (ihtlconvert output)")
		spoolDir   = flag.String("spool", "", "checkpoint spool directory (empty disables job durability)")
		addr       = flag.String("addr", "127.0.0.1:8372", "listen address")
		workers    = flag.Int("workers", 4, "pool width per engine (bit-for-bit contracts are pinned to it)")
		lanes      = flag.Int("lanes", 4, "max queries coalesced per batch")
		fillWindow = flag.Duration("fill-window", 2*time.Millisecond, "how long a batch waits for more queries")
		slots      = flag.Int("slots", 1, "concurrent batches, each on its own engine")
		queueLimit = flag.Int("queue-limit", 64, "pending-query bound; beyond it requests are shed with 429")
		timeout    = flag.Duration("timeout", 2*time.Second, "default per-query deadline")
		ckptEvery  = flag.Int("checkpoint-every", 4, "job spool cadence in iterations")
		jobRetries = flag.Int("job-retries", 2, "restarts of a faulted job before it fails")
		jobDelay   = flag.Duration("job-iter-delay", 0, "throttle jobs by sleeping this long per checkpoint")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "hard deadline for the SIGTERM drain")
		maxIters   = flag.Int("max-iters", 0, "query iteration cap (0 = analytics default)")
		tol        = flag.Float64("tol", 0, "query convergence tolerance (0 = analytics default)")
	)
	flag.Parse()
	if *enginePath == "" {
		fatal(fmt.Errorf("need -engine"))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	srv, err := serve.New(serve.Config{
		EnginePath:      *enginePath,
		SpoolDir:        *spoolDir,
		Workers:         *workers,
		Lanes:           *lanes,
		FillWindow:      *fillWindow,
		Slots:           *slots,
		QueueLimit:      *queueLimit,
		DefaultTimeout:  *timeout,
		CheckpointEvery: *ckptEvery,
		JobRetries:      *jobRetries,
		JobIterDelay:    *jobDelay,
		Query:           serve.JobOptions{MaxIters: *maxIters, Tol: *tol, RedistributeDangling: true},
		Logger:          logger,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	// The resolved address on stdout is the harness handshake: e2e
	// drivers pass :0 and scrape the port.
	fmt.Printf("ihtlserve listening on %s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "engine", *enginePath,
		"workers", *workers, "lanes", *lanes, "vertices", srv.NumVertices())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-sigCtx.Done():
		logger.Info("draining", "timeout", *drainT)
		hardCtx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		httpSrv.Shutdown(hardCtx) //nolint:errcheck // drain continues regardless
		if err := srv.Drain(hardCtx); err != nil {
			logger.Warn("hard stop after drain deadline", "err", err)
		}
		srv.Close()
	case err := <-errCh:
		srv.Close()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ihtlserve:", err)
	os.Exit(1)
}
