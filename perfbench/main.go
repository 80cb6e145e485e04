// Command perfbench is the lab's benchmark.  It times the three ways the
// lab is used — regenerating experiments from nothing (cold), measuring a
// guest program directly (measure), and answering bursts of duplicate
// measurement requests over HTTP (serve) — and, in a separate traced run,
// breaks the cost of one measurement down by layer.
//
// Build and run it through run.py from the root of a checkout:
//
//	python3 perfbench/run.py --workload cold|measure|serve --seed n --seconds s --trace 0|1
//
// Every input comes from --seed.  A run sets its workload up several
// times (reporting the median as setup_s), then repeats the workload's
// operation until --seconds have passed, checks every output against the
// golden results in perfbench/golden (golden.go), and prints one JSON
// object as the last line of standard output.  With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it spends half the time
// on the same loop with spans and counters on, the other half on the
// per-layer decomposition (layers.go), and writes the spans as a Chrome
// trace to .bench_build/trace-<workload>.json.
//
// `python3 perfbench/run.py --write-golden` regenerates the golden results
// from the lab in the checkout; do it only when a change is meant to move
// the simulated results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"interplab/internal/telemetry"
)

// buildDir holds everything the benchmark writes: run.py's build output
// and the lab state and traces of a run.
const buildDir = ".bench_build"

// setupReps is how many times a plain run sets its workload up; setup_s is
// the median, so one slow first-time set-up does not decide it.
const setupReps = 5

// instance is one set-up copy of a workload, ready to repeat its operation.
type instance interface {
	// run repeats the operation until the deadline and returns the latency
	// of every operation that succeeded and the number that failed.  An
	// operation in flight at the deadline completes.
	run(deadline time.Time) (lat []time.Duration, failed int)
	// verify runs the untimed checks on what the operations produced.
	verify() error
	// close releases the instance's servers and files.
	close()
}

// lab carries the reference results a workload checks against and the
// optional instrumentation a traced run hands the lab.
type lab struct {
	golden *golden
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
}

// workloadSetups maps each workload name to its set-up function.  Set-up
// builds the inputs from the seed, readies the lab's state, and warms it
// with a first measurement, so the timed loop starts warm.
var workloadSetups = map[string]func(seed int64, l lab) (instance, error){
	"cold":    setupCold,
	"measure": setupMeasure,
	"serve":   setupServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: cold, measure, or serve")
	seed := flag.Int64("seed", 1, "seed every input is drawn from")
	seconds := flag.Int("seconds", 10, "how long the timed loop runs")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	regen := flag.Bool("write-golden", false, "regenerate the reference results in "+goldenDir+" and exit")
	flag.Parse()
	if *regen {
		if err := writeGolden(); err != nil {
			fatalf("write golden: %v", err)
		}
		return
	}
	setup, ok := workloadSetups[*name]
	if !ok {
		fatalf("unknown workload %q (cold, measure, serve)", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the root of a checkout: %v", err)
	}
	g, err := loadGolden()
	if err != nil {
		fatalf("%v", err)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = tracedRun(*name, setup, *seed, budget, g)
	} else {
		res, err = plainRun(setup, *seed, budget, g)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(setup func(int64, lab) (instance, error), seed int64, budget time.Duration, g *golden) (result, error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = setup(seed, lab{golden: g}); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	start := time.Now()
	lat, failed := inst.run(start.Add(budget))
	wall := time.Since(start)
	res := result{Attempted: len(lat) + failed, Failed: failed}
	if err := inst.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect output: %v\n", err)
	} else {
		res.Correct = true
	}
	if len(lat) == 0 {
		return result{}, fmt.Errorf("no operation succeeded in %v", budget)
	}
	ms := millis(lat)
	res.Metrics = map[string]metric{
		"latency_ms":       {quantile(ms, 0.5), "ms"},
		"throughput_per_s": {float64(len(lat)) / wall.Seconds(), "1/s"},
		"setup_s":          {quantile(setups, 0.5), "s"},
	}
	return res, nil
}

// tracedRun spends half the budget on the workload's loop with the lab's
// tracer and registry attached, reading its per-operation counts, and the
// other half on the per-layer cost decomposition.
func tracedRun(name string, setup func(int64, lab) (instance, error), seed int64, budget time.Duration, g *golden) (result, error) {
	l := lab{golden: g, tracer: telemetry.NewTracer(), reg: telemetry.NewRegistry()}
	inst, err := setup(seed, l)
	if err != nil {
		return result{}, err
	}
	// Set-up and the checks also measure; count only the loop's work.
	counters := []string{"core.measures", "core.events", "core.cache_hits", "core.cache_misses", "server.dedup_hits", "server.requests"}
	before := make(map[string]float64)
	for _, c := range counters {
		before[c] = float64(l.reg.Counter(c).Value())
	}
	span := l.tracer.Start("perfbench loop " + name)
	lat, failed := inst.run(time.Now().Add(budget / 2))
	span.End()
	count := func(c string) float64 { return float64(l.reg.Counter(c).Value()) - before[c] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(len(lat) + failed)
	hits, misses := count("core.cache_hits"), count("core.cache_misses")
	m := map[string]metric{
		"guest_runs_per_op": {ratio(count("core.measures"), ops), "count"},
		"events_per_op":     {ratio(count("core.events"), ops), "count"},
		"cache_hit_ratio":   {ratio(hits, hits+misses), "ratio"},
		"dedup_ratio":       {ratio(count("server.dedup_hits"), count("server.requests")), "ratio"},
	}
	verr := inst.verify()
	inst.close()
	if verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect output: %v\n", verr)
	}
	span = l.tracer.Start("perfbench layers")
	layers, err := measureLayers(seed, budget/2, g, l.tracer)
	span.End()
	if err != nil {
		return result{}, err
	}
	for k, v := range layers {
		m[k] = v
	}
	if err := writeTrace(name, l.tracer); err != nil {
		return result{}, err
	}
	return result{Correct: verr == nil, Attempted: len(lat) + failed, Failed: failed, Metrics: m}, nil
}

// writeTrace saves the run's spans as a Chrome trace in the build
// directory, replacing the previous traced run's file for this workload.
func writeTrace(name string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(buildDir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// scratchDir makes a fresh directory for lab state (measurement caches)
// under the build directory, inside the checkout.
func scratchDir(prefix string) (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
