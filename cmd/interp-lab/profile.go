package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"interplab/internal/harness"
	"interplab/internal/profile"
	"interplab/internal/telemetry"
)

// cmdProfile runs one experiment with the attribution profiler attached and
// exports the result: per-program flat/cum tables and Table-2-style phase
// splits on stdout, and optionally a merged pprof protobuf (-pprof), merged
// folded stacks (-folded), and a manifest with profile artifacts (-json).
func cmdProfile(args []string, defaultScale float64, defaultCache string, defaultCacheRO bool) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	scale := fs.Float64("scale", defaultScale, "workload size multiplier (> 0)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "measurement workers (1 = serial; output is identical)")
	pprofOut := fs.String("pprof", "", "write a merged gzip'd pprof protobuf to `file` (go tool pprof)")
	foldedOut := fs.String("folded", "", "write merged folded stacks to `file` (flamegraph input)")
	topN := fs.Int("top", 10, "rows per flat/cum table (0 = all)")
	value := fs.String("value", "instructions", "sample type for tables and -folded (instructions, loads, stores, branches, imiss, dmiss)")
	jsonOut := fs.String("json", "", "write a run manifest with profile artifacts to `file`")
	cacheDir := fs.String("cache", defaultCache, "memoize profiled measurements in the cache at `dir`")
	cacheRO := fs.Bool("cache-readonly", defaultCacheRO, "with -cache: consult the cache without writing new entries")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: interp-lab profile [-scale f] [-parallel n] [-cache dir [-cache-readonly]] [-pprof file] [-folded file] [-top n] [-value type] [-json file] experiment\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if err := validateScale(*scale); err != nil {
		usageFatalf(fs.Usage, "%v", err)
	}
	if err := validateParallel(*parallel); err != nil {
		usageFatalf(fs.Usage, "%v", err)
	}
	vi, ok := profile.SampleTypeIndex(*value)
	if !ok {
		fatalf("unknown sample type %q", *value)
	}

	set := profile.NewSet()
	cache := openCacheFlags(*cacheDir, *cacheRO, fs.Usage)
	opt := harness.Options{Scale: *scale, Out: io.Discard, Profile: set, Parallelism: *parallel, Cache: cache}
	var man *telemetry.Manifest
	if *jsonOut != "" {
		man = telemetry.NewManifest(*scale)
		opt.Manifest = man
	}
	if err := harness.Run(rest[0], opt); err != nil {
		fatalf("%s: %v", rest[0], err)
	}
	profiles := set.Profiles()
	if len(profiles) == 0 {
		fatalf("%s: experiment produced no measurements to profile", rest[0])
	}

	for k, p := range profiles {
		if k > 0 {
			fmt.Println()
		}
		if err := p.WriteTop(os.Stdout, *topN, vi); err != nil {
			fatalf("top: %v", err)
		}
		fmt.Println()
		if err := p.WritePhaseSplit(os.Stdout); err != nil {
			fatalf("phase split: %v", err)
		}
	}

	if *pprofOut != "" {
		writeFileVia(*pprofOut, set.Merged().WritePprof)
		fmt.Fprintf(os.Stderr, "pprof profile -> %s (go tool pprof -top %s)\n", *pprofOut, *pprofOut)
	}
	if *foldedOut != "" {
		merged := set.Merged()
		writeFileVia(*foldedOut, func(w io.Writer) error { return merged.WriteFolded(w, vi) })
		fmt.Fprintf(os.Stderr, "folded stacks -> %s\n", *foldedOut)
	}
	if man != nil {
		man.Config.Cache = cacheInfo(cache)
		writeFileVia(*jsonOut, man.Write)
	}
}
