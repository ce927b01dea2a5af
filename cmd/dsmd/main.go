// dsmd is the long-running simulation service: an HTTP/JSON daemon that
// accepts (sources, machine config, policy, options) jobs, deduplicates
// them through a content-addressed result cache persisted on disk, and
// runs what remains on the simulated Origin-2000 under a bounded job queue
// with per-tenant concurrency limits. Because simulation is deterministic
// (bit-identical across tiers and runs), a run result is a pure
// function of its job spec: identical submissions — concurrent or days
// apart, from any client — cost exactly one simulation.
//
// Usage:
//
//	dsmd [flags]
//
// Flags:
//
//	-addr ADDR         listen address (default 127.0.0.1:8377)
//	-store DIR         persistent cache directory (default dsmd-store;
//	                   empty string disables persistence)
//	-store-bytes N     disk-cache bound in bytes, LRU-evicted (default 1 GiB)
//	-queue N           max queued jobs before submissions are rejected
//	                   with 429 (default 256)
//	-tenant-limit N    max concurrently running jobs per tenant (default 2)
//	-max-concurrent N  global running-job cap (0 = hostpool governed)
//	-compile-cache N   in-memory compiled-image cache entries (default 64)
//
// API:
//
//	POST /jobs               submit a job (blocks until done unless
//	                         "nowait":true in the body)
//	POST /batch              submit many jobs sharing defaults in one
//	                         request; admission is atomic (all fit in the
//	                         queue or the whole batch is a 429), each
//	                         element coalesces/cache-hits independently,
//	                         and the response lists per-element JobViews
//	                         in request order
//	GET  /jobs/{id}          job state: queued | running | done | failed
//	                         (?wait=1 blocks until the job finishes)
//	GET  /jobs/{id}/         live self-contained HTML dashboard for the job
//	GET  /jobs/{id}/snapshot live obs snapshot of a running job
//	GET  /jobs/{id}/series   cycle-sampled time series as JSONL, streamed
//	                         row by row while the job runs; bytes are
//	                         identical to a local dsmrun -series file
//	                         (?nofollow=1 returns what exists and stops)
//	GET  /stats              queue/cache/store counters
//	GET  /healthz            liveness
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops admitting,
// finishes (and persists) every queued and running job, flushes the store
// index, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsmdist/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	storeDir := flag.String("store", "dsmd-store", "persistent cache directory (empty = memory only)")
	storeBytes := flag.Int64("store-bytes", service.DefaultStoreBytes, "disk cache bound in bytes (LRU)")
	queueLen := flag.Int("queue", 0, "max queued jobs (0 = default 256)")
	tenantLimit := flag.Int("tenant-limit", 0, "max running jobs per tenant (0 = default 2)")
	maxConcurrent := flag.Int("max-concurrent", 0, "global running-job cap (0 = hostpool governed)")
	compileCache := flag.Int("compile-cache", 0, "in-memory compile cache entries (0 = default 64)")
	flag.Parse()

	var store *service.Store
	if *storeDir != "" {
		var err error
		store, err = service.OpenStore(*storeDir, *storeBytes)
		die(err)
		fmt.Fprintf(os.Stderr, "dsmd: store %s: %d entries, %d bytes resident\n",
			*storeDir, store.Len(), store.Bytes())
	}

	srv := service.New(service.Options{
		Store:               store,
		MaxQueue:            *queueLen,
		TenantLimit:         *tenantLimit,
		MaxConcurrent:       *maxConcurrent,
		CompileCacheEntries: *compileCache,
	})

	ln, err := net.Listen("tcp", *addr)
	die(err)
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	fmt.Fprintf(os.Stderr, "dsmd: serving on http://%s/\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc

	// Graceful drain: close the listener (new connections refused; the
	// server also rejects submissions that raced in), let every admitted
	// job finish and persist, then flush the index and exit clean.
	fmt.Fprintln(os.Stderr, "dsmd: draining (finishing admitted jobs)...")
	ln.Close()
	die(srv.Drain())
	// Let handlers still blocked on a just-finished job flush their
	// responses before the process goes away.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutdownCtx)
	cancel()
	fmt.Fprintln(os.Stderr, "dsmd: drained, store flushed; bye")
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmd: %v\n", err)
		os.Exit(1)
	}
}
