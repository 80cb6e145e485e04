package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/harness"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// layerRounds is the least number of interleaved rounds each layer is
// timed over, whatever the budget.
const layerRounds = 3

// streamLayers are the configurations a measured event stream can pass
// through, each adding one layer to the one before it or to "measure".
// Each runs one des input once.
var streamLayers = []struct {
	name string
	run  func(core.Program) error
}{
	// The guest interpreter, its atom probe and the trace batcher, with
	// the events dropped on the floor: the work every measurement shares.
	{"guest", runGuest},
	// core.Measure: adds the counter sink, a fresh image and OS, and
	// result collection.
	{"measure", func(p core.Program) error { _, err := core.Measure(p); return err }},
	{"observer", func(p core.Program) error {
		_, err := core.Measure(p, core.WithTelemetry(telemetry.NewRegistry()))
		return err
	}},
	{"profiler", func(p core.Program) error { _, err := core.Measure(p, core.WithProfiling()); return err }},
	{"pipeline", func(p core.Program) error {
		_, err := core.MeasureWithPipeline(p, alphasim.DefaultConfig())
		return err
	}},
	{"sweep", func(p core.Program) error {
		_, err := core.MeasureWithSweep(p, alphasim.DefaultICacheSweep())
		return err
	}},
}

// runGuest runs p the way core.Measure does, but into trace.Discard.
func runGuest(p core.Program) error {
	img := atom.NewImage()
	probe := atom.NewProbe(img, trace.Discard)
	osys := vfs.New()
	if p.System != core.SysC {
		osys.Instrument(img, probe)
	}
	if err := p.Run(&core.Ctx{Image: img, Probe: probe, Sink: trace.Discard, OS: osys}); err != nil {
		return err
	}
	probe.FlushEvents()
	return nil
}

// measureLayers times each layer a measurement passes through on one des
// input per system drawn from the seed, within about budget.  Stream
// layers are reported in host nanoseconds per native event, each as the
// extra cost over the configuration below it; the scheduler, cache and
// server as their cost per operation.
func measureLayers(seed int64, budget time.Duration, g *golden, tr *telemetry.Tracer) (map[string]metric, error) {
	deadline := time.Now().Add(budget)
	cases := drawDES(rand.New(rand.NewSource(seed)))
	progs := make([]core.Program, len(cases))
	var events uint64
	for i, c := range cases {
		progs[i] = c.prog
		res, err := core.Measure(c.prog)
		if err != nil {
			return nil, err
		}
		events += res.Counter.Total
	}
	out := make(map[string]metric)

	span := tr.Start("layer rescache")
	hit, put, err := cacheCosts(progs)
	span.End()
	if err != nil {
		return nil, err
	}
	out["rescache_hit_us"] = metric{hit, "us"}
	out["rescache_put_us"] = metric{put, "us"}

	span = tr.Start("layer server")
	srv, err := serverHitCost(seed, g)
	span.End()
	if err != nil {
		return nil, err
	}
	out["server_hit_us"] = metric{srv, "us"}

	span = tr.Start("layer scheduler")
	speedup, guestRuns, err := schedCosts(progs)
	span.End()
	if err != nil {
		return nil, err
	}
	out["sched_speedup_x"] = metric{speedup, "x"}
	out["sched_guest_runs_per_job"] = metric{guestRuns, "count"}

	// Every round times every (layer, program) pair once, rotating which
	// layer goes first, so host noise spreads over all layers alike.
	times := make([][]float64, len(streamLayers)) // per layer, its total in each round
	for r := 0; r < layerRounds || time.Now().Before(deadline); r++ {
		round := make([]float64, len(streamLayers))
		for _, p := range progs {
			for k := range streamLayers {
				l := (k + r) % len(streamLayers)
				span := tr.Start("layer "+streamLayers[l].name, "program", p.ID())
				start := time.Now()
				err := streamLayers[l].run(p)
				round[l] += float64(time.Since(start))
				span.End()
				if err != nil {
					return nil, fmt.Errorf("%s layer: %w", streamLayers[l].name, err)
				}
			}
		}
		for l := range round {
			times[l] = append(times[l], round[l])
		}
	}
	perEvent := make(map[string]float64)
	for l, s := range streamLayers {
		perEvent[s.name] = quantile(times[l], 0.5) / float64(events)
	}
	out["guest_ns_per_event"] = metric{perEvent["guest"], "ns/event"}
	out["core_ns_per_event"] = metric{perEvent["measure"] - perEvent["guest"], "ns/event"}
	for _, s := range []string{"observer", "profiler", "pipeline", "sweep"} {
		out[s+"_ns_per_event"] = metric{perEvent[s] - perEvent["measure"], "ns/event"}
	}
	return out, nil
}

// costReps is how many times each per-operation layer cost is timed; the
// median is reported.
const costReps = 40

// cacheCosts returns the median latency of a core.Measure answered from a
// warm rescache, and of storing one entry, in microseconds.
func cacheCosts(progs []core.Program) (hit, put float64, err error) {
	dir, err := scratchDir("layer-cache-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cache, err := rescache.Open(dir, false)
	if err != nil {
		return 0, 0, err
	}
	scope := rescache.Scope{Experiment: "perfbench", Scale: 1}
	var entries []*rescache.Entry
	for _, p := range progs {
		res, err := core.Measure(p, core.WithCache(cache, scope))
		if err != nil {
			return 0, 0, err
		}
		entries = append(entries, &rescache.Entry{SizeBytes: res.SizeBytes, Stdout: res.Stdout, Counter: res.Counter, Stats: res.Stats})
	}
	var hits, puts []float64
	for i := 0; i < costReps; i++ {
		p := progs[i%len(progs)]
		start := time.Now()
		res, err := core.Measure(p, core.WithCache(cache, scope))
		hits = append(hits, micros(time.Since(start)))
		if err != nil {
			return 0, 0, err
		}
		if !res.FromCache {
			return 0, 0, fmt.Errorf("%s missed a warm cache", p.ID())
		}
		key := rescache.Key{Schema: rescache.SchemaVersion, Fingerprint: rescache.Fingerprint(),
			Experiment: fmt.Sprintf("perfbench-put-%d", i), Kind: "measure", Program: p.ID()}
		start = time.Now()
		err = cache.Put(key, entries[i%len(entries)])
		puts = append(puts, micros(time.Since(start)))
		if err != nil {
			return 0, 0, err
		}
	}
	return quantile(hits, 0.5), quantile(puts, 0.5), nil
}

// serverHitCost returns the median latency, in microseconds, of a
// measurement request the server answers from its cache, sent by one
// client over a localhost connection.
func serverHitCost(seed int64, g *golden) (float64, error) {
	s, err := newServeRun(seed, lab{golden: g})
	if err != nil {
		return 0, err
	}
	defer s.close()
	var lat []float64
	for i := 0; i < costReps; i++ {
		start := time.Now()
		if _, _, err := s.post(serveKeys[i%len(serveKeys)]); err != nil {
			return 0, err
		}
		lat = append(lat, micros(time.Since(start)))
	}
	return quantile(lat, 0.5), nil
}

// schedJobs is one scheduler batch: every program measured plainly,
// through the simulated processor, and through the instruction-cache
// sweep — the three job kinds an experiment submits.
func schedJobs(progs []core.Program) []harness.BatchJob {
	var jobs []harness.BatchJob
	for _, p := range progs {
		jobs = append(jobs,
			harness.BatchJob{Kind: "measure", Program: p},
			harness.BatchJob{Kind: "pipeline", Program: p, Config: alphasim.DefaultConfig()},
			harness.BatchJob{Kind: "sweep", Program: p, Sweep: alphasim.DefaultICacheSweep()})
	}
	return jobs
}

// schedCosts runs one schedJobs batch at one worker and one at GOMAXPROCS
// workers, interleaved, and returns the wall-clock speedup of the parallel
// batch (from the median of each) and how many times the parallel batch
// executed a guest program per job submitted.
func schedCosts(progs []core.Program) (speedup, guestRuns float64, err error) {
	walls := [2][]float64{}
	workers := [2]int{1, runtime.GOMAXPROCS(0)}
	for r := 0; r < layerRounds; r++ {
		for i, n := range workers {
			reg := telemetry.NewRegistry()
			b := harness.NewBatch(harness.Options{Parallelism: n, Out: io.Discard, Telemetry: reg})
			var jobs []*harness.Job
			for _, bj := range schedJobs(progs) {
				j, err := b.Submit(bj)
				if err != nil {
					return 0, 0, err
				}
				jobs = append(jobs, j)
			}
			start := time.Now()
			if err := b.Run(); err != nil {
				return 0, 0, err
			}
			walls[i] = append(walls[i], float64(time.Since(start)))
			for _, j := range jobs {
				if j.Err() != nil {
					return 0, 0, j.Err()
				}
			}
			if i == 1 {
				guestRuns = float64(reg.Counter("core.measures").Value()) / float64(len(jobs))
			}
		}
	}
	return quantile(walls[0], 0.5) / quantile(walls[1], 0.5), guestRuns, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
