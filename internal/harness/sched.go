package harness

import (
	"context"
	"runtime"
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
// first and the batch's tail stays short.
//
// On failure the first error in submission order is returned and nothing
// after it is recorded, whatever order the jobs were claimed in: workers
// keep running every job before the earliest failure so far and abandon
// the ones after it, so the returned error and the recorded prefix are the
// serial path's.
//
// Each job fills its own ledger row as it is claimed and run; once the
// batch drains, recordSched folds the rows into the manifest's sched
// block.
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

	res core.Result
	err error
	dur time.Duration
	// row is the job's ledger row, written only by the worker that claims
	// the job and read once the batch drains.
	row labstats.JobRecord
}

// batch accumulates an experiment's measurement jobs and runs them.
type batch struct {
	opt Options
	// jobs holds the measurement jobs in submission (= record) order.
	jobs []*job
	// created is the origin of every ledger row's timestamps.
	created time.Time
}

// newBatch starts an empty batch carrying the experiment's options.
func (o Options) newBatch() *batch { return &batch{opt: o, created: time.Now()} }

// sinceUS returns t in microseconds since the batch was created.
func (b *batch) sinceUS(t time.Time) float64 {
	return float64(t.Sub(b.created)) / float64(time.Microsecond)
}

// addJob appends one measurement job in submission order.
func (b *batch) addJob(j *job) *job {
	j.row = labstats.JobRecord{
		Index:     len(b.jobs),
		Kind:      j.kind,
		Program:   j.prog.ID(),
		Worker:    -1,
		EnqueueUS: b.sinceUS(time.Now()),
		Outcome:   labstats.OutcomeUnclaimed,
	}
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
	beginUS := b.sinceUS(time.Now())
	b.runJobs(workers)
	b.recordSched(requested, workers, beginUS, b.sinceUS(time.Now()))
	for _, j := range b.jobs {
		if j.err != nil {
			return j.err
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
		ests[i], j.row.EstSource = cost.Estimate(j.kind, j.prog.ID(), j.prog.Variant, scale)
		j.row.EstUS = ests[i]
	}

	if workers <= 1 {
		for _, j := range b.jobs {
			b.claim(j, 0)
			b.exec(j, 0)
			if j.err != nil {
				return
			}
		}
		return
	}

	// Jobs are claimed longest-first via an atomic cursor over the LJF
	// permutation.  firstErr is the submission index of the earliest job
	// that has failed (len(jobs) while none has): a job after it is
	// abandoned when claimed, and every job before it still runs, because
	// the serial path would have recorded it.
	order := labstats.LJFOrder(ests)
	var (
		cursor   atomic.Int64
		firstErr atomic.Int64
		wg       sync.WaitGroup
	)
	firstErr.Store(int64(len(b.jobs)))
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
				i := order[n]
				j := b.jobs[i]
				b.claim(j, w)
				if int64(i) > firstErr.Load() {
					j.row.Outcome = labstats.OutcomeAbandoned
					continue
				}
				b.opt.Tracer.InstantOn(lane, "claim "+j.prog.ID(), "job", i, "worker", w)
				if !lastFinish.IsZero() {
					if gap := time.Since(lastFinish); gap > 0 {
						b.opt.Tracer.InstantOn(lane, "idle", "worker", w,
							"gap_us", float64(gap)/float64(time.Microsecond))
					}
				}
				b.exec(j, lane)
				lastFinish = time.Now()
				// A failure lowers firstErr to i unless an earlier job's
				// failure already holds it.
				for f := firstErr.Load(); j.err != nil && int64(i) < f; f = firstErr.Load() {
					if firstErr.CompareAndSwap(f, int64(i)) {
						break
					}
				}
			}
		}(w, w+2)
	}
	wg.Wait()
}

// claim charges job j to worker w now.  Its outcome is written once, when
// it finishes or is abandoned.
func (b *batch) claim(j *job, w int) {
	j.row.Worker, j.row.ClaimUS = w, b.sinceUS(time.Now())
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
	finish := time.Now()
	j.dur = finish.Sub(start)
	j.row.StartUS, j.row.FinishUS = b.sinceUS(start), b.sinceUS(finish)
	j.row.DurUS = j.row.FinishUS - j.row.StartUS
	if j.err != nil {
		j.row.Outcome = labstats.OutcomeError
		return
	}
	j.row.Outcome = labstats.OutcomeOK
	labstats.GlobalCostModel().Observe(
		j.kind, id, j.prog.Variant, b.opt.scale(), float64(j.dur)/float64(time.Microsecond))
}

// recordSched folds the drained batch's ledger rows into the run record:
// the manifest entry's sched block (even for failed batches — the ledger
// must balance exactly when something went wrong) and the cumulative
// sched.* registry instruments.  Per-batch numbers (utilization, serial
// fraction, overlap) live only in the sched block.
func (b *batch) recordSched(requested, workers int, beginUS, endUS float64) {
	if len(b.jobs) == 0 {
		return
	}
	rows := make([]labstats.JobRecord, len(b.jobs))
	for i, j := range b.jobs {
		rows[i] = j.row
	}
	s := labstats.Compute(rows, requested, workers, beginUS, endUS)
	s.ClaimPolicy = labstats.PolicyFIFO
	if requested > 1 {
		s.ClaimPolicy = labstats.PolicyLJF
	}
	s.CPUs, s.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
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
