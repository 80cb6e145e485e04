// interp-lab runs the study's experiments: each id regenerates one table or
// figure of the paper from the four interpreters and the compiled
// baselines.
//
// Usage:
//
//	interp-lab [-scale f] [-parallel n] [-cache dir] [-json manifest.json] [-trace trace.json] experiment...
//	interp-lab profile [-scale f] [-pprof file] [-folded file] [-top n] [-value type] [-json file] experiment
//	interp-lab serve [-addr host:port] [-cache dir] [-parallel n] [-queue n] [-request-timeout d] [-drain-timeout d]
//	interp-lab cache [-dir d] [-max-age dur] stats|gc|clear|fingerprint
//	interp-lab list
//	interp-lab report manifest.json
//	interp-lab sched-report [-json] manifest.json
//	interp-lab bench-telemetry [-sched-parallelism n] [file]
//
// Experiments: table1 table2 table3 fig1 fig2 fig3 fig4 memmodel ablation
// opt-matrix, or "all".  opt-matrix measures the optimization-tier matrix —
// quickening and superinstructions per interpreter, each cell a distinct
// manifest `variant` (see EXPERIMENTS.md).  -parallel fans each experiment's measurements out over n
// workers (default GOMAXPROCS; output is byte-identical to -parallel 1).
// -cache memoizes every measurement in a content-addressed on-disk cache:
// a re-run of unchanged experiments on the same build restores results
// instead of re-measuring, with byte-identical output (-cache-readonly
// consults without writing; see docs/CACHING.md).  -json writes a
// versioned machine-readable run manifest that `interp-lab report`
// re-renders to the exact text of a direct run; -trace writes a Chrome
// trace-event file of the run's span hierarchy for chrome://tracing or
// Perfetto.  The profile subcommand attaches the attribution profiler and
// exports per-routine/per-opcode profiles as pprof (go tool pprof) and
// folded stacks (flamegraphs); sched-report renders the speedup ledger a
// -json run records for each measurement batch (per-worker utilization,
// serial fraction, predicted vs. measured speedup); see
// docs/OBSERVABILITY.md.  The serve subcommand runs the lab as an HTTP
// daemon — measurement requests with singleflight dedup, a fixed worker
// pool, backpressure, and a cache shared with CLI runs (see
// docs/SERVING.md); -version prints the build fingerprint that cache
// keys on.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"interplab/internal/harness"
	"interplab/internal/labserver"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: interp-lab [-scale f] [-parallel n] [-cache dir [-cache-readonly]] [-json file] [-trace file] experiment...
       interp-lab profile [-scale f] [-pprof file] [-folded file] [-top n] [-value type] [-json file] experiment
       interp-lab serve [-addr host:port] [-cache dir] [-parallel n] [-queue n] [-request-timeout d] [-drain-timeout d]
       interp-lab cache [-dir d] [-max-age dur] stats|gc|clear|fingerprint
       interp-lab list
       interp-lab report manifest.json
       interp-lab sched-report [-json] manifest.json
       interp-lab bench-telemetry [-sched-parallelism n] [file]
       interp-lab -version

experiments: %v, all
`, harness.Experiments)
}

func main() {
	scale := flag.Float64("scale", 1, "workload size multiplier (> 0)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "measurement workers per experiment (1 = serial; output is identical)")
	jsonOut := flag.String("json", "", "write a machine-readable run manifest to `file`")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file to `file`")
	cacheDir := flag.String("cache", "", "memoize measurements in the cache at `dir` (see docs/CACHING.md)")
	cacheRO := flag.Bool("cache-readonly", false, "with -cache: consult the cache without writing new entries")
	version := flag.Bool("version", false, "print the lab build identity (binary fingerprint, cache schema, toolchain) and exit")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *version {
		printVersion(os.Stdout)
		return
	}
	if len(args) == 0 {
		usage()
		fmt.Fprintln(os.Stderr, "\navailable experiments (interp-lab list):")
		for _, id := range harness.Experiments {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		for _, id := range harness.Experiments {
			fmt.Println(id)
		}
		return
	case "report":
		if len(args) != 2 {
			fatalf("report takes exactly one manifest file")
		}
		if err := report(args[1], os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	case "profile":
		cmdProfile(args[1:], *scale, *cacheDir, *cacheRO)
		return
	case "serve":
		cmdServe(args[1:], *cacheDir, *cacheRO)
		return
	case "cache":
		cmdCache(args[1:])
		return
	case "sched-report":
		cmdSchedReport(args[1:])
		return
	case "bench-telemetry":
		cmdBenchTelemetry(args[1:], *scale, *cacheDir)
		return
	}
	if err := validateScale(*scale); err != nil {
		usageFatalf("%v", err)
	}
	if err := validateParallel(*parallel); err != nil {
		usageFatalf("%v", err)
	}
	cmdRun(args, *scale, *parallel, *jsonOut, *traceOut, openCacheFlags(*cacheDir, *cacheRO))
}

// validateScale rejects workload scales the experiments cannot honor:
// zero, negative, NaN and infinite values.
func validateScale(f float64) error {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("-scale must be > 0 and finite (got %g)", f)
	}
	return nil
}

// validateParallel rejects worker counts the scheduler cannot honor.  Both
// zero and negative values are errors at the CLI (the library treats 0 as
// "use GOMAXPROCS", but a user typing -parallel 0 or -parallel -4 almost
// certainly made a mistake).
func validateParallel(n int) error {
	if n < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", n)
	}
	return nil
}

// printVersion reports the lab build identity: the binary fingerprint the
// measurement cache keys on (so a client can tell whether two invocations
// — or a CLI and a server — share cache entries), the cache schema, and
// the toolchain.  /healthz reports the same fields for a running server.
func printVersion(w io.Writer) {
	info := labserver.Info()
	fmt.Fprintf(w, "interp-lab %s (cache schema %d, %s)\n",
		info.Fingerprint, info.CacheSchema, info.GoVersion)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "interp-lab: "+format+"\n", args...)
	os.Exit(1)
}

// usageFatalf reports a bad invocation: the error, then the usage block,
// exiting 2 as flag-parse errors do.
func usageFatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "interp-lab: "+format+"\n\n", args...)
	usage()
	os.Exit(2)
}

// openCacheFlags resolves the -cache/-cache-readonly pair into an open
// cache, or nil when -cache was not given.
func openCacheFlags(dir string, readonly bool) *rescache.Cache {
	if dir == "" {
		if readonly {
			usageFatalf("-cache-readonly requires -cache dir")
		}
		return nil
	}
	c, err := rescache.Open(dir, readonly)
	if err != nil {
		fatalf("%v", err)
	}
	return c
}

// cmdRun executes the named experiments, optionally recording a run
// manifest (-json), a span trace (-trace), and memoizing measurements
// (-cache).
func cmdRun(ids []string, scale float64, parallel int, jsonOut, traceOut string, cache *rescache.Cache) {
	if len(ids) == 1 && ids[0] == "all" {
		ids = harness.Experiments
	}
	opt := harness.Options{Scale: scale, Out: os.Stdout, Parallelism: parallel, Cache: cache}
	var reg *telemetry.Registry
	var man *telemetry.Manifest
	if jsonOut != "" {
		reg = telemetry.NewRegistry()
		man = telemetry.NewManifest(scale)
		man.Config.Parallelism = parallel
		opt.Telemetry = reg
		opt.Manifest = man
	}
	if traceOut != "" {
		opt.Tracer = telemetry.NewTracer()
	}
	for k, id := range ids {
		if k > 0 {
			fmt.Println()
		}
		if err := harness.Run(id, opt); err != nil {
			fmt.Fprintf(os.Stderr, "interp-lab: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
	if man != nil {
		man.Config.Cache = cacheInfo(cache)
		man.AttachMetrics(reg)
		writeFileVia(jsonOut, man.Write)
	}
	if opt.Tracer != nil {
		writeFileVia(traceOut, opt.Tracer.WriteJSON)
	}
}

// cacheInfo summarizes an attached cache for the manifest's config.cache
// field; nil cache, nil summary.
func cacheInfo(cache *rescache.Cache) *telemetry.CacheInfo {
	if cache == nil {
		return nil
	}
	hits, misses, puts, corrupt := cache.Counts()
	return &telemetry.CacheInfo{
		Dir:         cache.Dir(),
		ReadOnly:    cache.ReadOnly(),
		Fingerprint: rescache.Fingerprint(),
		Hits:        hits,
		Misses:      misses,
		Puts:        puts,
		Corrupt:     corrupt,
	}
}

// writeFileVia writes path through the given serializer.
func writeFileVia(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("close %s: %v", path, err)
	}
}

// report re-renders a saved manifest to the text a direct run printed.
// Every error identifies the file, in one line: a malformed or truncated
// manifest should read as "that file is bad", not as a raw JSON decode
// trace.
func report(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err // os errors already name the file
	}
	defer f.Close()
	man, err := telemetry.ReadManifest(f)
	if err != nil {
		return fmt.Errorf("%s: not a readable run manifest (%v)", path, err)
	}
	if err := man.RenderText(w); err != nil {
		return fmt.Errorf("render %s: %v", path, err)
	}
	return nil
}
