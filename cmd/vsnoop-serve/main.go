// Command vsnoop-serve runs the vsnoop simulation service: a long-running
// HTTP/JSON daemon that accepts single-config and sweep jobs, schedules
// them over the deterministic simulator, memoizes results in a
// content-addressed store, and survives crashes via an fsync'd job
// journal. See internal/serve for the architecture and DESIGN.md §12 for
// the failure model.
//
// Usage:
//
//	vsnoop-serve -addr :8080 -data /var/lib/vsnoop \
//	    -workers 4 -queue 64 -quota-rate 2 -quota-burst 20 \
//	    -store-max-bytes 1073741824
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, POST /v1/jobs/{id}/cancel,
// GET /v1/results/{hash}, /healthz, /readyz, /metrics.
//
// SIGINT/SIGTERM shut down gracefully: intake stops, in-flight jobs are
// canceled and journaled, and the journal/store stay consistent for the
// next start to replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vsnoop/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "vsnoop-data", "data directory (journal + result store)")
	workers := flag.Int("workers", 0, "concurrent runs, one goroutine each (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue capacity (backpressure bound)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant admitted configs per second (0 = quotas off)")
	quotaBurst := flag.Float64("quota-burst", 32, "per-tenant token-bucket burst (configs)")
	storeMax := flag.Int64("store-max-bytes", 0, "result-store size bound; oldest unreferenced results are evicted past it (0 = unbounded)")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	maxConfigs := flag.Int("max-configs", 1024, "max configs per sweep job")
	flag.Parse()

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s, err := serve.New(serve.Options{
		DataDir:          *data,
		Workers:          w,
		QueueCap:         *queue,
		QuotaRate:        *quotaRate,
		QuotaBurst:       *quotaBurst,
		MaxBodyBytes:     *maxBody,
		MaxConfigsPerJob: *maxConfigs,
		StoreMaxBytes:    *storeMax,
		Now:              time.Now,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsnoop-serve:", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vsnoop-serve: listening on %s (data=%s workers=%d queue=%d)\n",
		*addr, *data, w, *queue)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "vsnoop-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		s.Close()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "vsnoop-serve:", err)
			s.Close()
			os.Exit(1)
		}
	}
}
