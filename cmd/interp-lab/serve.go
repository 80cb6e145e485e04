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

	"interplab/internal/labserver"
	"interplab/internal/telemetry"
)

// cmdServe runs the measurement server: an HTTP daemon that admits
// measurement/profile requests with singleflight dedup, measures each one
// on a fixed pool of workers in arrival order, shares one measurement
// cache across sessions, and drains gracefully on SIGINT/SIGTERM.  It
// exits non-zero when the drain does not finish within -drain-timeout.
// See docs/SERVING.md.
func cmdServe(args []string, defaultCache string, defaultCacheRO bool) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	cacheDir := fs.String("cache", defaultCache, "share the measurement cache at `dir` across all requests and CLI runs")
	cacheRO := fs.Bool("cache-readonly", defaultCacheRO, "with -cache: consult the cache without writing new entries")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "workers measuring requests concurrently, one request each")
	queue := fs.Int("queue", 64, "admission queue depth; a full queue answers 429")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "server-side cap on a request's wait")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for queued and in-flight requests")
	traceOut := fs.String("trace", "", "write a Chrome trace-event file to `file` on shutdown")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: interp-lab serve [-addr host:port] [-cache dir [-cache-readonly]] [-parallel n] [-queue n] [-request-timeout d] [-drain-timeout d] [-trace file]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	if err := validateParallel(*parallel); err != nil {
		usageFatalf(fs.Usage, "%v", err)
	}
	if err := validateServeLimits(*queue, *reqTimeout, *drainTimeout); err != nil {
		usageFatalf(fs.Usage, "%v", err)
	}
	// A measurement is CPU-bound, and Go preempts it only every 10ms.  With
	// a worker on every P, a request waits that long to be admitted, and
	// duplicates of a running measurement arrive after it ended instead of
	// joining it.  Keep one P for the listener and admission.
	if runtime.GOMAXPROCS(0) <= *parallel {
		runtime.GOMAXPROCS(*parallel + 1)
	}

	cfg := labserver.Config{
		Cache:          openCacheFlags(*cacheDir, *cacheRO, fs.Usage),
		Parallelism:    *parallel,
		QueueDepth:     *queue,
		RequestTimeout: *reqTimeout,
		Telemetry:      telemetry.NewRegistry(),
	}
	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer()
	}
	srv := labserver.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	info := labserver.Info()
	fmt.Fprintf(os.Stderr, "interp-lab serve: listening on %s (%s, cache schema %d, %d workers)\n",
		*addr, info.Fingerprint, info.CacheSchema, *parallel)
	if cfg.Cache != nil {
		fmt.Fprintf(os.Stderr, "interp-lab serve: measurement cache at %s (readonly=%v)\n",
			cfg.Cache.Dir(), cfg.Cache.ReadOnly())
	}

	// Serve until a signal arrives, then drain: stop admission, finish
	// queued and in-flight requests, and only then close the listener.
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "interp-lab serve: %v — draining\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "interp-lab serve: shutdown: %v\n", err)
	}
	cancel()
	if *traceOut != "" {
		writeFileVia(*traceOut, cfg.Tracer.WriteJSON)
	}
	if drainErr != nil {
		fatalf("serve: %v", drainErr)
	}
	fmt.Fprintln(os.Stderr, "interp-lab serve: drained, bye")
}

// validateServeLimits rejects a queue depth or timeout the server cannot
// honor: zero and negative values are usage errors naming the flag (the
// library would silently read a zero as its default).
func validateServeLimits(queue int, requestTimeout, drainTimeout time.Duration) error {
	switch {
	case queue < 1:
		return fmt.Errorf("-queue must be >= 1 (got %d)", queue)
	case requestTimeout <= 0:
		return fmt.Errorf("-request-timeout must be > 0 (got %v)", requestTimeout)
	case drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", drainTimeout)
	}
	return nil
}
