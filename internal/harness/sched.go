package harness

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/labstats"
)

// This file is the parallel measurement scheduler.  The experiments'
// measurements are mutually independent — every core.Measure* call runs
// against a fresh image/probe/OS — so each experiment enumerates its
// measurements into a batch, the batch fans them out over
// Options.Parallelism workers, and results are collected in submission
// order.  Experiments render their text from the collected results only
// after the batch succeeds, and manifest/profile recording happens in
// submission order, so the rendered tables, manifest entries, and merged
// profiles are byte-identical to a serial run; the only observable
// differences are wall time and the lanes concurrent spans land on in the
// Chrome trace.
//
// A batch is a list of measurement jobs and nothing else: each job is a
// "measure", "pipeline" or "sweep" run of one program, and runs its guest
// exactly once; a sweep simulates every cache geometry over that one event
// stream (see measureSweep), and a pipeline job may feed a sweep from the
// same stream (see measurePipelineSweep).
//
// Parallel workers claim jobs longest-job-first: jobs are ordered by a
// cost estimate (static kind weights, refined by the process-global
// labstats cost model as batches drain), so critical-path jobs start
// first and the batch's tail stays short.  With uniform estimates the
// order degenerates to submission order — exactly the old FIFO cursor.
//
// On failure the first error in submission order is returned and nothing
// after it is recorded (workers stop claiming jobs once any job has
// failed, so later jobs may simply never run).
//
// Each job runs under pprof labels naming its experiment, kind, program
// and variant, so a Go CPU profile of a run (interp-lab -cpuprofile)
// splits host time by job: go tool pprof -tagfocus=program=MIPSI/li.

// job is one schedulable measurement.
type job struct {
	kind  string // "measure", "pipeline", "sweep"
	prog  core.Program
	cfg   alphasim.Config       // pipeline jobs
	sweep *alphasim.ICacheSweep // sweep jobs, and pipeline jobs that also sweep
	lidx  int                   // this job's index in the batch ledger

	res core.Result
	err error
	dur time.Duration
	ran bool
}

// batch accumulates an experiment's measurement jobs and runs them.
type batch struct {
	opt Options
	// jobs holds the measurement jobs in submission (= record) order.
	jobs []*job
	// led is the batch's scheduling ledger: per-job
	// enqueue/claim/start/finish timestamps, cost estimates, worker
	// assignment, and bracketing runtime snapshots, folded into the
	// manifest's sched block after the batch drains.
	led *labstats.Ledger
}

// newBatch starts an empty batch carrying the experiment's options.
func (o Options) newBatch() *batch { return &batch{opt: o, led: labstats.NewLedger()} }

// addJob appends one measurement job in submission order.
func (b *batch) addJob(j *job) *job {
	j.lidx = b.led.Enqueue(j.kind, j.prog.ID())
	b.jobs = append(b.jobs, j)
	return j
}

// measure enqueues a software-metrics measurement of p.
func (b *batch) measure(p core.Program) *job {
	return b.addJob(&job{kind: "measure", prog: p})
}

// measurePipeline enqueues a measurement of p through the simulated
// processor.
func (b *batch) measurePipeline(p core.Program, cfg alphasim.Config) *job {
	return b.addJob(&job{kind: "pipeline", prog: p, cfg: cfg})
}

// measurePipelineSweep enqueues one run of p that feeds both the simulated
// processor and the instruction-cache sweep: a pipeline job whose result
// also fills the sweep's points, recorded as one pipeline measurement that
// carries them.  The sweep must be private to this job.
func (b *batch) measurePipelineSweep(p core.Program, cfg alphasim.Config, sweep *alphasim.ICacheSweep) *job {
	return b.addJob(&job{kind: "pipeline", prog: p, cfg: cfg, sweep: sweep})
}

// measureSweep enqueues a measurement of p through the instruction-cache
// sweep: one job that runs p once and simulates every geometry of the
// sweep over that single event stream, at any parallelism.  The sweep must
// be private to this job: workers run concurrently.
func (b *batch) measureSweep(p core.Program, sweep *alphasim.ICacheSweep) *job {
	return b.addJob(&job{kind: "sweep", prog: p, sweep: sweep})
}

// run executes the batch's jobs on up to Options.Parallelism workers, then
// records results into the manifest and profile set in submission order.
// It returns the first error in submission order, recording only the
// measurements before it.
func (b *batch) run() error {
	requested := b.opt.parallelism()
	workers := min(requested, len(b.jobs))
	if workers < 1 {
		workers = 1
	}
	if requested > 1 {
		b.led.SetPolicy(labstats.PolicyLJF)
	} else {
		b.led.SetPolicy(labstats.PolicyFIFO)
	}
	b.led.Begin(requested, workers)
	b.runJobs(workers)
	b.led.End()
	b.recordSched()
	for _, j := range b.jobs {
		if j.err != nil {
			return j.err
		}
		if !j.ran {
			// Only reachable when another job failed; stop recording where
			// the serial path would have stopped.
			continue
		}
		b.opt.record(j.kind, j.res, j.dur, j.sweep)
	}
	return nil
}

// runJobs executes the batch's jobs on the given number of workers.
// Parallel runs claim longest-job-first over the cost-model estimates;
// the serial path executes in submission order on the main trace lane,
// exactly the pre-scheduler behavior.
func (b *batch) runJobs(workers int) {
	scale := b.opt.scale()
	cost := labstats.GlobalCostModel()
	ests := make([]float64, len(b.jobs))
	for i, j := range b.jobs {
		est, src := cost.Estimate(j.kind, j.prog.ID(), j.prog.Variant, scale)
		ests[i] = est
		b.led.SetEstimate(j.lidx, est, src)
	}

	if workers <= 1 {
		for _, j := range b.jobs {
			b.led.Claim(j.lidx, 0)
			b.exec(j, 0)
			if j.err != nil {
				return
			}
		}
		return
	}

	// Jobs are claimed longest-first via an atomic cursor over the LJF
	// permutation; once any job fails, workers stop executing — each live
	// worker abandons at most the one job it claims after the failure,
	// and everything beyond stays unclaimed.
	order := labstats.LJFOrder(ests)
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Lane 1 is the experiment's main line; workers get 2..n+1.
		go func(w, lane int) {
			defer wg.Done()
			var lastFinish time.Time
			for {
				n := int(cursor.Add(1)) - 1
				if n >= len(order) {
					return
				}
				j := b.jobs[order[n]]
				if failed.Load() {
					b.led.Abandon(j.lidx, w)
					return
				}
				b.led.Claim(j.lidx, w)
				b.opt.Tracer.InstantOn(lane, "claim "+j.prog.ID(), "job", order[n], "worker", w)
				if !lastFinish.IsZero() {
					if gap := time.Since(lastFinish); gap > 0 {
						b.opt.Tracer.InstantOn(lane, "idle", "worker", w,
							"gap_us", float64(gap)/float64(time.Microsecond))
					}
				}
				b.exec(j, lane)
				lastFinish = time.Now()
				if j.err != nil {
					failed.Store(true)
					return
				}
			}
		}(w, w+2)
	}
	wg.Wait()
}

// exec performs one job on the given trace lane (0 = main lane).
func (b *batch) exec(j *job, lane int) {
	o := b.opt
	id := j.prog.ID()
	args := []any{"program", id}
	switch j.kind {
	case "pipeline":
		if j.sweep != nil {
			args = append(args, "sink", "pipeline+icache-sweep")
		} else {
			args = append(args, "sink", "pipeline")
		}
	case "sweep":
		args = append(args, "sink", "icache-sweep")
	}
	span := o.Tracer.StartOn(lane, "measure "+id, args...)
	defer span.End()
	opts := o.measureOpts()
	if lane > 0 {
		opts = append(opts, core.WithTraceLane(lane))
	}
	start := time.Now()
	b.led.Start(j.lidx)
	labels := pprof.Labels("experiment", o.experiment, "kind", j.kind, "program", id, "variant", j.prog.Variant)
	pprof.Do(context.Background(), labels, func(context.Context) {
		switch j.kind {
		case "measure":
			j.res, j.err = core.Measure(j.prog, opts...)
		case "pipeline":
			j.res, j.err = core.MeasureWithPipelineAndSweep(j.prog, j.cfg, j.sweep, opts...)
		case "sweep":
			j.res, j.err = core.MeasureWithSweep(j.prog, j.sweep, opts...)
		}
	})
	b.led.Finish(j.lidx, j.err != nil)
	j.dur = time.Since(start)
	j.ran = true
	if j.err == nil {
		labstats.GlobalCostModel().Observe(
			j.kind, id, j.prog.Variant, b.opt.scale(), float64(j.dur)/float64(time.Microsecond))
	}
}

// recordSched folds the drained batch's ledger into the run record: the
// manifest entry's sched block (even for failed batches — the ledger must
// balance exactly when something went wrong) and the cumulative sched.*
// registry instruments.  Per-batch numbers (utilization, serial fraction,
// speedup) live only in the sched block.
func (b *batch) recordSched() {
	s := b.led.Stats()
	if s == nil {
		return
	}
	b.opt.rec.AddSched(s)
	reg := b.opt.Telemetry
	if reg == nil {
		return
	}
	reg.Counter("sched.batches").Inc()
	reg.Counter("sched.jobs").Add(uint64(s.Jobs.Finished))
	reg.Counter("sched.errors").Add(uint64(s.Jobs.Errors))
	reg.Counter("sched.abandoned").Add(uint64(s.Jobs.Abandoned))
	reg.Counter("sched.unclaimed").Add(uint64(s.Jobs.Unclaimed))
	reg.Histogram("sched.batch_wall_us").Observe(uint64(s.WallUS))
}
