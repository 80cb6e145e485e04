package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/harness"
	"interplab/internal/labstats"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/workloads"
)

// benchResult is one arm of the telemetry overhead measurement.
type benchResult struct {
	// Events is the native events of one run: on the overhead arms, of
	// all its back-to-back measurements.
	Events       uint64  `json:"events"`
	BestSeconds  float64 `json:"best_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// NsPerEvent is the arm's absolute cost: host nanoseconds per native
	// event of its best run.  Set on the overhead arms only.
	NsPerEvent float64 `json:"ns_per_event,omitempty"`
	// CPUSeconds is the process CPU time, user plus system, of the run
	// that produced BestSeconds.  Set on the scheduler arms only, so the
	// wall-clock speedup can be read against the CPU each arm spent.
	CPUSeconds float64 `json:"cpu_seconds,omitempty"`
	// WinningRound is the 1-based interleaved round that produced
	// BestSeconds — a diagnostic for host noise: arms that keep winning in
	// late rounds are being warmed, arms that win round 1 and never again
	// are being disturbed.  Zero for arms not measured in rounds.
	WinningRound int `json:"winning_round,omitempty"`
}

// benchHost identifies the host and build a report was measured on, so
// absolute costs are read against the machine that produced them.
type benchHost struct {
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Fingerprint string `json:"fingerprint"`
}

// benchReport is the BENCH_telemetry.json document: the event throughput
// and per-event cost of a measurement with telemetry off vs. on, and with
// the attribution profiler attached, seeding the repo's performance
// trajectory.  None of the three arms builds an event block: the producers
// count at emit, and the profiler reads their tallies.  The telemetry_on
// arm prices WithTelemetry's registry updates alone.
type benchReport struct {
	Benchmark string    `json:"benchmark"`
	Workload  string    `json:"workload"`
	Host      benchHost `json:"host"`
	Runs      int       `json:"runs"`
	// RunMeasurements is how many back-to-back measurements one timed
	// overhead run makes, enough for the run to last overheadRunTarget.
	RunMeasurements    int         `json:"run_measurements"`
	Off                benchResult `json:"telemetry_off"`
	On                 benchResult `json:"telemetry_on"`
	Profiling          benchResult `json:"profiling_on"`
	OverheadPct        float64     `json:"overhead_pct"`
	ProfileOverheadPct float64     `json:"profile_overhead_pct"`

	// Scheduler arm: the same harness experiment measured serially and on
	// the parallel scheduler — the output is byte-identical, so this is
	// pure wall-time.  Parallelism is the worker count the parallel arm
	// actually ran at; SchedParallelismRequested is what -sched-parallelism
	// asked for (default GOMAXPROCS) before the >= 2 clamp, and
	// SchedParallelismEffective is what the batch used after capping at
	// its job count.
	SchedExperiment           string      `json:"sched_experiment"`
	Parallelism               int         `json:"parallelism"`
	SchedParallelismRequested int         `json:"sched_parallelism_requested"`
	SchedParallelismEffective int         `json:"sched_parallelism_effective"`
	SchedSerial               benchResult `json:"sched_serial"`
	SchedParallel             benchResult `json:"sched_parallel"`
	SchedSpeedupX             float64     `json:"sched_speedup_x"`
	// SchedSpeedupMinX and SchedSpeedupMaxX bound the speedup of each
	// interleaved round (its serial over its parallel time): the spread
	// the best-of ratio above does not show.
	SchedSpeedupMinX float64 `json:"sched_speedup_min_x"`
	SchedSpeedupMaxX float64 `json:"sched_speedup_max_x"`

	// SchedLedger is the speedup ledger of the parallel arm's best run —
	// why SchedSpeedupX is what it is (per-worker utilization, serial
	// fraction, imbalance, overlap).  SchedLedgerP2 is the same
	// ledger at exactly two workers, a fixed point comparable across hosts
	// with different core counts.
	SchedLedger   *schedLedgerSummary `json:"sched_ledger"`
	SchedLedgerP2 *schedLedgerSummary `json:"sched_ledger_p2"`

	// Measurement-cache arm: all ten experiments, first against an empty
	// cache (cold: every job measured and stored), then again (warm: every
	// job restored from disk).  The rendered text is verified byte-identical
	// between the arms; warm Events is 0 because no native-instruction
	// stream is replayed on a hit.
	CacheExperiments int         `json:"cache_experiments"`
	CacheCold        benchResult `json:"cache_cold"`
	CacheWarm        benchResult `json:"cache_warm"`
	CacheSpeedupX    float64     `json:"cache_speedup_x"`
}

// cmdBenchTelemetry wall-times a small harness measurement with telemetry
// disabled and enabled and writes the throughput comparison to out (the
// optional positional argument, default BENCH_telemetry.json).  With
// -cache dir the measurement-cache arm runs there (the dir is cleared to
// guarantee a cold start); otherwise it uses a throwaway temp dir.
// -sched-parallelism sets the parallel scheduler arm's worker count.
func cmdBenchTelemetry(args []string, scale float64, cacheDir string) {
	fs := flag.NewFlagSet("bench-telemetry", flag.ExitOnError)
	schedPar := fs.Int("sched-parallelism", runtime.GOMAXPROCS(0),
		"workers for the parallel scheduler arm and its speedup ledger (default GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: interp-lab bench-telemetry [-sched-parallelism n] [file]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	out := "BENCH_telemetry.json"
	if fs.NArg() > 0 {
		out = fs.Arg(0)
	}
	if *schedPar < 1 {
		usageFatalf(fs.Usage, "-sched-parallelism must be >= 1 (got %d)", *schedPar)
	}
	if err := validateScale(scale); err != nil {
		fatalf("%v", err)
	}
	blocks := int(30 * scale)
	if blocks < 2 {
		blocks = 2
	}
	mk := func() core.Program { return workloads.DESMIPSI(blocks) }
	// The overhead arms take the best of more runs than the second-long
	// scheduler arms.
	const overheadRuns, runs = 15, 5

	// One measurement of the workload lasts a few milliseconds, too short
	// to resolve an overhead of a percent, so each timed run makes enough
	// back-to-back measurements to last overheadRunTarget.  The three
	// overhead arms run in interleaved rounds (off, on, profiling,
	// repeated), so a host noise episode is spread across every arm
	// instead of sinking whichever one it lands on.
	perRun := runMeasurements(mk)
	arms, results := benchArms(overheadRuns, perRun, mk, [][]core.MeasureOption{
		{},
		{core.WithTelemetry(telemetry.NewRegistry())},
		{core.WithProfiling()},
	})
	off, on, prof := arms[0], arms[1], arms[2]

	rep := benchReport{
		Benchmark: "telemetry-overhead",
		Workload:  mk().ID(),
		Host: benchHost{
			CPUs:        runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			Fingerprint: rescache.Fingerprint(),
		},
		Runs:            overheadRuns,
		RunMeasurements: perRun,
		Off:             off,
		On:              on,
		Profiling:       prof,
	}
	if off.EventsPerSec > 0 {
		rep.OverheadPct = 100 * (off.EventsPerSec - on.EventsPerSec) / off.EventsPerSec
		rep.ProfileOverheadPct = 100 * (off.EventsPerSec - prof.EventsPerSec) / off.EventsPerSec
	}

	// The arms above only count; a pipeline run of the same program
	// streams every event through blocks.  Both must measure the same
	// stream: the pipeline simulates exactly the events the tally
	// counted, and the probe's books agree — a mismatch means the tally
	// and the stream diverged, which is fatal here exactly as it is in the
	// core stream-identity test.
	streamed, err := core.MeasureWithPipeline(mk(), alphasim.DefaultConfig())
	if err != nil {
		fatalf("bench workload: %v", err)
	}
	tallied := results[0]
	if streamed.Pipe.Instructions != tallied.Counter.Total || streamed.Counter != tallied.Counter ||
		!reflect.DeepEqual(streamed.Stats, tallied.Stats) {
		fatalf("bench: the tally-only and the streamed run measured different streams")
	}

	rep.SchedExperiment = "table1"
	rep.SchedParallelismRequested = *schedPar
	// At least two workers, so the parallel arm always measures the
	// concurrent scheduler path (on a single-CPU host the honest result is
	// ~1.0x; with more cores the speedup shows up here).
	rep.Parallelism = *schedPar
	if rep.Parallelism < 2 {
		rep.Parallelism = 2
	}
	// Serial and parallel run in interleaved best-of rounds (serial,
	// parallel, serial, parallel, ...) so a host noise episode degrades
	// both arms instead of sinking whichever one it lands on — the speedup
	// ratio stays honest even on a noisy runner.
	schedRes, schedStats, walls := schedArms(runs, rep.SchedExperiment, scale, []int{1, rep.Parallelism})
	rep.SchedSerial, rep.SchedParallel = schedRes[0], schedRes[1]
	parSched := schedStats[1]
	if rep.SchedParallel.BestSeconds > 0 {
		rep.SchedSpeedupX = rep.SchedSerial.BestSeconds / rep.SchedParallel.BestSeconds
	}
	for i := range walls[0] {
		x := walls[0][i].Seconds() / walls[1][i].Seconds()
		if i == 0 || x < rep.SchedSpeedupMinX {
			rep.SchedSpeedupMinX = x
		}
		rep.SchedSpeedupMaxX = max(rep.SchedSpeedupMaxX, x)
	}
	rep.SchedLedger = summarizeLedger(parSched)
	if parSched != nil {
		rep.SchedParallelismEffective = parSched.WorkersEffective
	}
	if rep.Parallelism == 2 {
		rep.SchedLedgerP2 = rep.SchedLedger
	} else {
		// One run suffices: the fixed two-worker point is ledger data, not
		// a best-of timing.
		_, p2, _ := schedArms(1, rep.SchedExperiment, scale, []int{2})
		rep.SchedLedgerP2 = summarizeLedger(p2[0])
	}

	rep.CacheExperiments = len(harness.Experiments)
	rep.CacheCold, rep.CacheWarm = cacheArms(scale, cacheDir)
	if rep.CacheWarm.BestSeconds > 0 {
		rep.CacheSpeedupX = rep.CacheCold.BestSeconds / rep.CacheWarm.BestSeconds
	}
	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatalf("write %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		fatalf("close %s: %v", out, err)
	}
	fmt.Printf("telemetry off: %.2f ns/event, on: %.2f ns/event (overhead %.2f%%), profiling: %.2f ns/event (overhead %.2f%%) -> %s\n",
		off.NsPerEvent, on.NsPerEvent, rep.OverheadPct, prof.NsPerEvent, rep.ProfileOverheadPct, out)
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s\n",
		rep.Host.CPUs, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Fingerprint)
	fmt.Printf("scheduler %s: serial %.2fs, %.2f cpu-s (round %d), parallel(%d) %.2fs, %.2f cpu-s (round %d) -> %.2fx (rounds %.2f-%.2fx)\n",
		rep.SchedExperiment, rep.SchedSerial.BestSeconds, rep.SchedSerial.CPUSeconds, rep.SchedSerial.WinningRound,
		rep.Parallelism, rep.SchedParallel.BestSeconds, rep.SchedParallel.CPUSeconds, rep.SchedParallel.WinningRound,
		rep.SchedSpeedupX, rep.SchedSpeedupMinX, rep.SchedSpeedupMaxX)
	if l := rep.SchedLedger; l != nil {
		fmt.Printf("scheduler ledger (%d workers, %s, %d cpus): serial fraction %.3f, imbalance %.1f%%, dilation %.2fx, overlap %.2fx\n",
			l.EffectiveWorkers, l.ClaimPolicy, l.CPUs, l.SerialFraction,
			l.ImbalancePct, l.DilationX, l.OverlapX)
	}
	fmt.Printf("cache (%d experiments): cold %.2fs, warm %.2fs (%.1fx)\n",
		rep.CacheExperiments, rep.CacheCold.BestSeconds, rep.CacheWarm.BestSeconds, rep.CacheSpeedupX)
}

// cacheArms times a cold run of every experiment against an empty
// measurement cache, then a warm run against the entries the cold run
// stored.  Warm is best-of-2: the second warm run confirms hits stay hits.
// The two arms' rendered text is compared byte for byte — a mismatch means
// the cache broke determinism, which is fatal here exactly as it would be
// in the determinism golden test.
func cacheArms(scale float64, dir string) (cold, warm benchResult) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "interp-lab-bench-cache-")
		if err != nil {
			fatalf("bench cache: %v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cache, err := rescache.Open(dir, false)
	if err != nil {
		fatalf("bench cache: %v", err)
	}
	// A restored CI cache or prior bench run must not warm the cold arm.
	if err := cache.Clear(); err != nil {
		fatalf("bench cache: %v", err)
	}
	coldText, coldRes := cacheRun(cache, scale)
	warmText, warmRes := cacheRun(cache, scale)
	warmText2, warmRes2 := cacheRun(cache, scale)
	if warmRes2.BestSeconds < warmRes.BestSeconds {
		warmRes = warmRes2
	}
	if warmText != coldText || warmText2 != coldText {
		fatalf("bench cache: warm output differs from cold output (cache broke determinism)")
	}
	return coldRes, warmRes
}

// cacheRun renders every experiment once through the given cache and
// returns the text plus wall time.  Events counts the native instructions
// actually measured: a fully warm run reports 0.
func cacheRun(cache *rescache.Cache, scale float64) (string, benchResult) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	opt := harness.Options{Scale: scale, Out: &buf, Cache: cache, Telemetry: reg}
	start := time.Now()
	for k, id := range harness.Experiments {
		if k > 0 {
			buf.WriteByte('\n')
		}
		if err := harness.Run(id, opt); err != nil {
			fatalf("bench cache %s: %v", id, err)
		}
	}
	el := time.Since(start)
	r := benchResult{Events: reg.Counter("core.events").Value(), BestSeconds: el.Seconds()}
	if el > 0 {
		r.EventsPerSec = float64(r.Events) / el.Seconds()
	}
	return buf.String(), r
}

// schedLedgerSummary condenses one batch's speedup ledger for
// BENCH_telemetry.json: enough to explain the headline speedup — who was
// busy, what share of the work ran serially, and how many jobs were in
// flight on average — without the full per-job ledger.
type schedLedgerSummary struct {
	Parallelism       int       `json:"parallelism"`
	EffectiveWorkers  int       `json:"effective_workers"`
	WorkerUtilization []float64 `json:"worker_utilization"`
	SerialFraction    float64   `json:"serial_fraction"`
	ImbalancePct      float64   `json:"imbalance_pct"`
	OverlapX          float64   `json:"overlap_x"`
	// ClaimPolicy, CPUs/GOMAXPROCS, and DilationX qualify the headline:
	// how claims were ordered, how much hardware parallelism the arm
	// really had, and how far concurrent execution stretched jobs past
	// their single-run estimates (≈1 on idle multicore; ≫1 when the
	// workers timeshare).
	ClaimPolicy string  `json:"claim_policy,omitempty"`
	CPUs        int     `json:"cpus,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	DilationX   float64 `json:"dilation_x,omitempty"`
}

// summarizeLedger condenses a batch's speedup ledger; nil in, nil out.
func summarizeLedger(s *labstats.SchedStats) *schedLedgerSummary {
	if s == nil {
		return nil
	}
	out := &schedLedgerSummary{
		Parallelism:      s.WorkersRequested,
		EffectiveWorkers: s.WorkersEffective,
		SerialFraction:   s.SerialFraction,
		ImbalancePct:     s.ImbalancePct,
		OverlapX:         s.OverlapX,
		ClaimPolicy:      s.ClaimPolicy,
		CPUs:             s.CPUs,
		GOMAXPROCS:       s.GOMAXPROCS,
		DilationX:        s.DilationX,
	}
	for _, w := range s.Workers {
		out.WorkerUtilization = append(out.WorkerUtilization, w.Utilization)
	}
	return out
}

// schedArms measures best-of-n wall time for one harness experiment at
// each of the given parallelisms, in interleaved rounds (every arm once
// per round).  Events is the total native-instruction stream length across
// the experiment's measurements, taken from each run's registry; the
// returned SchedStats are each arm's best-timed run's speedup ledger, and
// each result records which round won and the process CPU time of that
// run.  walls holds every run's wall time, by arm and round.
func schedArms(n int, id string, scale float64, parallelisms []int) (_ []benchResult, _ []*labstats.SchedStats, walls [][]time.Duration) {
	best := make([]time.Duration, len(parallelisms))
	cpu := make([]time.Duration, len(parallelisms))
	rounds := make([]int, len(parallelisms))
	events := make([]uint64, len(parallelisms))
	scheds := make([]*labstats.SchedStats, len(parallelisms))
	walls = make([][]time.Duration, len(parallelisms))
	for i := 0; i < n; i++ {
		for a, p := range parallelisms {
			reg := telemetry.NewRegistry()
			man := telemetry.NewManifest(scale)
			opt := harness.Options{Scale: scale, Out: io.Discard, Parallelism: p, Telemetry: reg, Manifest: man}
			runtime.GC() // collect the previous run's garbage outside the timing
			start, startCPU := time.Now(), telemetry.ProcessCPU()
			if err := harness.Run(id, opt); err != nil {
				fatalf("bench %s: %v", id, err)
			}
			el, elCPU := time.Since(start), telemetry.ProcessCPU()-startCPU
			events[a] = reg.Counter("core.events").Value()
			walls[a] = append(walls[a], el)
			if best[a] == 0 || el < best[a] {
				best[a], cpu[a] = el, elCPU
				rounds[a] = i + 1
				if len(man.Runs) > 0 && len(man.Runs[0].Sched) > 0 {
					scheds[a] = man.Runs[0].Sched[0]
				}
			}
		}
	}
	out := make([]benchResult, len(parallelisms))
	for a := range parallelisms {
		out[a] = benchResult{Events: events[a], BestSeconds: best[a].Seconds(), CPUSeconds: cpu[a].Seconds(), WinningRound: rounds[a]}
		if best[a] > 0 {
			out[a].EventsPerSec = float64(events[a]) / best[a].Seconds()
		}
	}
	return out, scheds, walls
}

// overheadRunTarget is the least wall time of one timed overhead run on
// the host that sizes it.
const overheadRunTarget = 100 * time.Millisecond

// runMeasurements returns how many back-to-back measurements of mk's
// program one overhead run makes: enough that the fastest of three
// untimed single measurements, repeated, lasts overheadRunTarget.
func runMeasurements(mk func() core.Program) int {
	var fastest time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := core.Measure(mk()); err != nil {
			fatalf("bench workload: %v", err)
		}
		if el := time.Since(start); i == 0 || el < fastest {
			fastest = el
		}
	}
	return max(1, int((overheadRunTarget+fastest-1)/fastest))
}

// benchArms measures several configurations of the same workload in n
// interleaved rounds — arm 0, 1, 2, ..., then all arms again — each run
// making perRun back-to-back measurements, and keeps each arm's best wall
// time.  It returns the per-arm timings and each arm's last Result (runs
// are deterministic, so any run's Result stands for all of that arm's).
func benchArms(n, perRun int, mk func() core.Program, arms [][]core.MeasureOption) ([]benchResult, []core.Result) {
	best := make([]time.Duration, len(arms))
	rounds := make([]int, len(arms))
	last := make([]core.Result, len(arms))
	for i := 0; i < n; i++ {
		for a, opts := range arms {
			runtime.GC() // collect the previous arm's garbage outside the timing
			start := time.Now()
			for k := 0; k < perRun; k++ {
				res, err := core.Measure(mk(), opts...)
				if err != nil {
					fatalf("bench workload: %v", err)
				}
				last[a] = res
			}
			el := time.Since(start)
			if best[a] == 0 || el < best[a] {
				best[a] = el
				rounds[a] = i + 1
			}
		}
	}
	out := make([]benchResult, len(arms))
	for a := range arms {
		out[a] = benchResult{Events: uint64(perRun) * last[a].Counter.Total, BestSeconds: best[a].Seconds(), WinningRound: rounds[a]}
		if best[a] > 0 {
			out[a].EventsPerSec = float64(out[a].Events) / best[a].Seconds()
		}
		if out[a].Events > 0 {
			out[a].NsPerEvent = float64(best[a].Nanoseconds()) / float64(out[a].Events)
		}
	}
	return out, last
}
