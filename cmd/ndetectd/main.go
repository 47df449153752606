// Command ndetectd is the analysis server: a long-lived daemon that
// accepts circuits over HTTP, runs the worst-case, average-case or
// partitioned analysis, deduplicates identical in-flight requests, and
// caches results under a canonical content address (DESIGN.md §10).
//
// Because every analysis is a pure function of (circuit, options, seed),
// a cached response is byte-identical to the cold run — and identical to
// `ndetect -json` for the same circuit and options.
//
// With -store-dir the caches become persistent (DESIGN.md §11): results
// and universe artifacts are written to a crash-safe on-disk store, so a
// restarted daemon serves previously computed work from disk and new
// option variants over known circuits skip straight past exhaustive
// simulation.
//
//	ndetectd -addr :8414 -workers 8 -cache 256 -store-dir /var/lib/ndetectd
//
//	# enqueue the embedded bbtas benchmark
//	curl -s localhost:8414/jobs -d '{"benchmark":"bbtas","analysis":"worstcase"}'
//	# poll status, then fetch the result
//	curl -s localhost:8414/jobs/<id>
//	curl -s localhost:8414/jobs/<id>/result
//	# sweep option variants over one circuit (shared universe)
//	curl -s localhost:8414/sweeps -d '{"benchmark":"bbtas","sweep":"nmax=10;k=1000;seed=1..5;def=1,2"}'
//	# follow a job live as Server-Sent Events (state + progress, §14)
//	curl -sN localhost:8414/jobs/<id>/events
//
// Endpoints: POST /jobs, POST /sweeps, GET /jobs/{id},
// GET /jobs/{id}/result, GET /jobs/{id}/events, GET /healthz,
// GET /metrics. See internal/service for the API shapes.
//
// With -debug-addr a second, separate listener serves introspection only
// (keep it private): net/http/pprof under /debug/pprof/, and /trace/{id}
// dumping a job's stage spans as JSON. Every API request is logged with
// method, path (which carries the job's content-address hash), status,
// bytes and duration.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// jobs (new submissions answer 503), drains in-flight analyses for up to
// -drain, flushes the store, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ndetect/internal/fault"
	"ndetect/internal/obs"
	"ndetect/internal/service"
	"ndetect/internal/sim"
	"ndetect/internal/store"
)

func main() {
	var (
		addrF     = flag.String("addr", ":8414", "listen address")
		workersF  = flag.Int("workers", 0, "server-wide worker budget, split across concurrent jobs (0 = one per CPU; DESIGN.md §5/§10)")
		cacheF    = flag.Int("cache", service.DefaultCacheEntries, "result cache capacity (LRU entries)")
		storeF    = flag.String("store-dir", "", "persistent artifact store directory (empty = in-memory caches only; DESIGN.md §11)")
		storeMaxF = flag.Int64("store-max-bytes", 0, "artifact store size bound in bytes (0 = default 1 GiB; LRU eviction)")
		modelF    = flag.String("fault-model", "", `fault model filled into submissions that name none ("" = the stuck-at + bridging default); requests carrying their own options.fault_model are unaffected (DESIGN.md §12)`)
		drainF    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining in-flight analyses")
		debugF    = flag.String("debug-addr", "", "separate introspection listener: net/http/pprof and /trace/{id} span dumps (empty = off; keep private, DESIGN.md §14)")
		queueF    = flag.Int("max-queue", service.DefaultMaxQueue, "accept-queue bound: submissions beyond it shed with 503 + Retry-After (0 = unbounded; DESIGN.md §15)")
		quotaF    = flag.Float64("quota-rps", 0, "per-client submission quota in requests/second, keyed by X-Ndetect-Client or remote host (0 = off; over-quota submits shed with 429)")
		burstF    = flag.Int("quota-burst", 0, "per-client quota burst size (0 = 2×quota-rps)")
		sampleF   = flag.Int("access-log-sample", 1, "log every Nth API request (0 = off, 1 = all; responses ≥500 are always logged)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ndetectd [-addr :8414] [-workers N] [-cache N] [-store-dir DIR] [-store-max-bytes N] [-fault-model ID] [-drain 30s] [-debug-addr :8415] [-max-queue N] [-quota-rps R] [-quota-burst N] [-access-log-sample N]")
		os.Exit(2)
	}
	if _, err := fault.Resolve(*modelF); err != nil {
		log.Fatalf("ndetectd: %v", err)
	}

	var st *store.Store
	if *storeF != "" {
		var err error
		if st, err = store.Open(*storeF, store.Options{MaxBytes: *storeMaxF}); err != nil {
			log.Fatalf("ndetectd: %v", err)
		}
	}

	m := service.NewManager(service.Config{
		Workers: *workersF, CacheEntries: *cacheF, Store: st,
		DefaultFaultModel: *modelF,
		MaxQueue:          *queueF,
		QuotaRPS:          *quotaF,
		QuotaBurst:        *burstF,
	})
	api := service.NewServer(m)
	srv := &http.Server{
		Addr:              *addrF,
		Handler:           obs.AccessLogSampled(log.Printf, *sampleF, api.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *debugF != "" {
		dbg := &http.Server{
			Addr:              *debugF,
			Handler:           api.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ndetectd: debug listener: %v", err)
			}
		}()
		log.Printf("ndetectd: debug listener on %s (pprof + /trace/{id})", *debugF)
	}

	storeDesc := "none"
	if st != nil {
		storeDesc = st.Dir()
	}
	log.Printf("ndetectd: listening on %s (workers=%d, cache=%d entries, store=%s)",
		*addrF, sim.ResolveWorkers(*workersF), *cacheF, storeDesc)

	// Serve until SIGINT/SIGTERM, then shut down gracefully: stop
	// accepting (HTTP first, then the manager), drain in-flight analyses
	// so their results reach the store, and close the store. Analyses
	// still running at the -drain deadline are abandoned with the process
	// — they are pure recomputable functions, so nothing is lost beyond
	// the cache warmth.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("ndetectd: %v", err)
	case <-ctx.Done():
		log.Printf("ndetectd: shutting down (draining up to %s)", *drainF)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainF)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("ndetectd: shutdown: %v", err)
		}
		if err := m.Drain(shutdownCtx); err != nil {
			log.Printf("ndetectd: drain: %v (abandoning in-flight analyses)", err)
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("ndetectd: store close: %v", err)
			}
		}
		log.Printf("ndetectd: bye")
	}
}
