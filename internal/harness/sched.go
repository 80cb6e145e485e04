package harness

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/labstats"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

// This file is the parallel measurement scheduler.  The experiments'
// measurements are mutually independent — every core.Measure* call runs
// against a fresh image/probe/OS — so each experiment enumerates its work
// into a batch, the batch fans it out over Options.Parallelism workers,
// and results are collected in submission order.  Because rendering goes
// to per-job buffers flushed in submission order and manifest/profile
// recording also happens in submission order, the rendered tables,
// manifest entries, and merged profiles are byte-identical to a serial
// run; the only observable differences are wall time and the lanes
// concurrent spans land on in the Chrome trace.
//
// A batch runs in sequential stages:
//
//	setup jobs  →  plan callbacks  →  measurement jobs  →  render jobs
//
// Setup jobs compute per-experiment inputs (workload enumeration), plan
// callbacks turn those inputs into measurement jobs, and render jobs
// format the collected results into private buffers.  Moving setup and
// render inside the batch means the speedup ledger's wall covers the
// whole experiment, and the ledger decomposes it per phase.  Each
// measurement job runs its guest exactly once; a sweep job simulates
// every cache geometry over that one event stream (see measureSweep).
//
// Within a parallel stage, workers claim jobs longest-job-first: jobs are
// ordered by a cost estimate (static kind weights, refined by the
// process-global labstats cost model as batches drain), so critical-path
// jobs start first and the stage's tail stays short.  With uniform
// estimates the order degenerates to submission order — exactly the old
// FIFO cursor.
//
// On failure the first error in submission order is returned, nothing
// after it is recorded, and the render stage is skipped, matching the
// pre-staged path's stop-at-first-error semantics (workers stop claiming
// jobs once any job has failed, so later jobs may simply never run).

// job is one schedulable unit: a measurement, a setup closure, or a
// render closure.
type job struct {
	kind  string // "measure", "pipeline", "sweep", "setup", "render"
	name  string // setup/render jobs: display name (measure jobs use prog.ID())
	prog  core.Program
	cfg   alphasim.Config       // pipeline jobs
	sweep *alphasim.ICacheSweep // sweep jobs
	lidx  int                   // this job's index in the batch ledger

	fn       func() error          // setup jobs
	renderFn func(io.Writer) error // render jobs
	buf      *bytes.Buffer         // render jobs: private output, flushed in submission order

	// scope and profiling override the batch-wide cache scope and
	// profiling mode for this one job (exported-Batch callers only;
	// experiment jobs leave them zero and inherit from Options).
	scope     *rescache.Scope
	profiling bool

	res core.Result
	err error
	dur time.Duration
	ran bool
}

// label returns the job's ledger/estimate identity.
func (j *job) label() string {
	if j.name != "" {
		return j.name
	}
	return j.prog.ID()
}

// batch accumulates an experiment's staged work and runs it.
type batch struct {
	opt    Options
	setups []*job
	plans  []func() error
	// jobs holds the measurement jobs in submission (= record) order.
	jobs    []*job
	renders []*job
	// led is the batch's scheduling ledger: per-job
	// enqueue/claim/start/finish timestamps, cost estimates, worker
	// assignment, and bracketing runtime snapshots, folded into the
	// manifest's sched block and the sched.* registry instruments after
	// the batch drains.
	led *labstats.Ledger
	// keepGoing switches the batch from the experiments'
	// stop-at-first-error contract to the server's
	// every-job-runs-to-completion contract: a failing job neither stops
	// other workers nor fails the batch (callers read per-job errors), and
	// a panicking job is converted to that job's error instead of taking
	// the process down.
	keepGoing bool
	// lastSched retains the drained batch's speedup ledger for exported
	// callers (Batch.Sched); recordSched fills it.
	lastSched *labstats.SchedStats
}

// newBatch starts an empty batch carrying the experiment's options.
func (o Options) newBatch() *batch { return &batch{opt: o, led: labstats.NewLedger()} }

// addSetup registers a setup-stage job: fn runs (possibly concurrently
// with other setup jobs) before any plan callback or measurement.
func (b *batch) addSetup(name string, fn func() error) *job {
	j := &job{kind: "setup", name: name, fn: fn}
	j.lidx = b.led.Enqueue(j.kind, name)
	b.setups = append(b.setups, j)
	return j
}

// plan registers a callback that runs on the coordinating goroutine after
// the setup stage drains, to enqueue measurement jobs from setup results.
// Callbacks run in registration order.
func (b *batch) plan(fn func() error) { b.plans = append(b.plans, fn) }

// addRender registers a render-stage job: fn runs after every measurement
// has been collected, writing into a private buffer that run() flushes to
// Options.Out in submission order — so parallel rendering keeps serial
// bytes.
func (b *batch) addRender(name string, fn func(io.Writer) error) *job {
	j := &job{kind: "render", name: name, renderFn: fn}
	j.lidx = b.led.Enqueue(j.kind, name)
	b.renders = append(b.renders, j)
	return j
}

// addJob appends one measurement job in submission order.
func (b *batch) addJob(j *job) *job {
	j.lidx = b.led.Enqueue(j.kind, j.label())
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

// measureSweep enqueues a measurement of p through the instruction-cache
// sweep: one job that runs p once and simulates every geometry of the
// sweep over that single event stream, at any parallelism.  The sweep must
// be private to this job: workers run concurrently.
func (b *batch) measureSweep(p core.Program, sweep *alphasim.ICacheSweep) *job {
	return b.addJob(&job{kind: "sweep", prog: p, sweep: sweep})
}

// capWorkers bounds the worker count by the stage width, min 1.
func capWorkers(requested, width int) int {
	w := requested
	if w > width {
		w = width
	}
	if w < 1 {
		w = 1
	}
	return w
}

// run executes the staged batch, then records results into the manifest
// and profile set and flushes rendered text, all in submission order.  It
// returns the first (stage-order, then submission-order) error, recording
// only the measurements before it.
func (b *batch) run() error {
	requested := b.opt.parallelism()
	if b.opt.SchedContention {
		b.led.CaptureContention()
	}
	if requested > 1 {
		b.led.SetPolicy(labstats.PolicyLJF)
	} else {
		b.led.SetPolicy(labstats.PolicyFIFO)
	}
	// The effective worker count is the widest stage's; planning can
	// still widen the measure stage, so it is finalized after the plan
	// callbacks run.
	b.led.Begin(requested, capWorkers(requested, len(b.setups)))

	setupFailed := b.runStage(b.setups, requested)

	var planErr error
	if !setupFailed {
		for _, plan := range b.plans {
			if planErr = plan(); planErr != nil {
				break
			}
		}
	}
	width := len(b.setups)
	for _, n := range []int{len(b.jobs), len(b.renders)} {
		if n > width {
			width = n
		}
	}
	b.led.SetEffective(capWorkers(requested, width))

	measureFailed := false
	if !setupFailed && planErr == nil {
		measureFailed = b.runStage(b.jobs, requested)
	}

	if !setupFailed && planErr == nil && !measureFailed {
		b.runStage(b.renders, requested)
	}

	b.led.End()
	b.recordSched()
	if b.keepGoing {
		// Exported-batch callers read per-job results and errors
		// themselves and keep no manifest, so nothing is recorded here and
		// individual failures do not fail the batch.
		return nil
	}
	for _, j := range b.setups {
		if j.err != nil {
			return j.err
		}
	}
	if planErr != nil {
		return planErr
	}
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
	for _, j := range b.renders {
		if j.err != nil {
			return j.err
		}
		if j.ran && j.buf != nil {
			if _, err := j.buf.WriteTo(b.opt.out()); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStage executes one stage's units on up to `requested` workers and
// reports whether any unit failed.  Parallel stages claim longest-job-
// first over the cost-model estimates; the serial path executes in
// submission order on the main trace lane, exactly the pre-scheduler
// behavior.
func (b *batch) runStage(units []*job, requested int) (failed bool) {
	if len(units) == 0 {
		return false
	}
	scale := b.opt.scale()
	cost := labstats.GlobalCostModel()
	ests := make([]float64, len(units))
	for i, j := range units {
		est, src := cost.Estimate(j.kind, j.label(), scale)
		ests[i] = est
		b.led.SetEstimate(j.lidx, est, src)
	}

	workers := capWorkers(requested, len(units))
	if workers <= 1 {
		for _, j := range units {
			b.led.Claim(j.lidx, 0)
			b.exec(j, 0, b.opt.Telemetry)
			if j.err != nil && !b.keepGoing {
				return true
			}
		}
		return false
	}

	// Jobs are claimed longest-first via an atomic cursor over the LJF
	// permutation; once any job fails, workers stop executing — each live
	// worker abandons at most the one job it claims after the failure,
	// and everything beyond stays unclaimed.
	//
	// Each worker updates a private registry shard, keeping the stage off
	// the shared registry's mutex and counter cache lines; shards are
	// folded back in worker order once the stage drains, so the merged
	// totals are deterministic.
	order := labstats.LJFOrder(ests)
	var (
		cursor     atomic.Int64
		failedFlag atomic.Bool
		wg         sync.WaitGroup
	)
	shards := make([]*telemetry.Registry, workers)
	for w := 0; w < workers; w++ {
		shards[w] = b.opt.Telemetry.Shard()
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
				j := units[order[n]]
				if !b.keepGoing && failedFlag.Load() {
					b.led.Abandon(j.lidx, w)
					return
				}
				b.led.Claim(j.lidx, w)
				b.opt.Tracer.InstantOn(lane, "claim "+j.label(), "job", order[n], "worker", w)
				if !lastFinish.IsZero() {
					if gap := time.Since(lastFinish); gap > 0 {
						b.opt.Tracer.InstantOn(lane, "idle", "worker", w,
							"gap_us", float64(gap)/float64(time.Microsecond))
					}
				}
				b.exec(j, lane, shards[w])
				lastFinish = time.Now()
				if j.err != nil && !b.keepGoing {
					failedFlag.Store(true)
					return
				}
			}
		}(w, w+2)
	}
	wg.Wait()
	for _, s := range shards {
		b.opt.Telemetry.Merge(s)
	}
	return failedFlag.Load()
}

// exec performs one job on the given trace lane (0 = main lane), updating
// the given telemetry registry (the shared one, or a worker's shard).
func (b *batch) exec(j *job, lane int, reg *telemetry.Registry) {
	o := b.opt
	args := []any{"program", j.label()}
	switch j.kind {
	case "pipeline":
		args = append(args, "sink", "pipeline")
	case "sweep":
		args = append(args, "sink", "icache-sweep")
	}
	spanName := "measure " + j.label()
	if j.kind == "setup" || j.kind == "render" {
		spanName = j.kind + " " + j.label()
	}
	span := o.Tracer.StartOn(lane, spanName, args...)
	defer span.End()
	var opts []core.MeasureOption
	if j.fn == nil && j.renderFn == nil {
		opts = o.measureOpts(reg, j)
		if lane > 0 {
			opts = append(opts, core.WithTraceLane(lane))
		}
	}
	start := time.Now()
	b.led.Start(j.lidx)
	func() {
		if b.keepGoing {
			// A panicking workload must not take the server down with it:
			// isolate it to this job's error.  Experiment runs keep the
			// crash — a panic there is a lab bug that should be loud.
			defer func() {
				if r := recover(); r != nil {
					j.err = fmt.Errorf("%s: measurement panicked: %v", j.label(), r)
				}
			}()
		}
		switch j.kind {
		case "measure":
			j.res, j.err = core.Measure(j.prog, opts...)
		case "pipeline":
			j.res, j.err = core.MeasureWithPipeline(j.prog, j.cfg, opts...)
		case "sweep":
			j.res, j.err = core.MeasureWithSweep(j.prog, j.sweep, opts...)
		case "setup":
			j.err = j.fn()
		case "render":
			j.buf = &bytes.Buffer{}
			j.err = j.renderFn(j.buf)
		}
	}()
	b.led.Finish(j.lidx, j.err != nil)
	j.dur = time.Since(start)
	j.ran = true
	if j.err == nil {
		labstats.GlobalCostModel().Observe(
			j.kind, j.label(), b.opt.scale(), float64(j.dur)/float64(time.Microsecond))
	}
}

// recordSched folds the drained batch's ledger into the run record: the
// manifest entry's sched block (even for failed batches — the ledger must
// balance exactly when something went wrong) and the sched.* registry
// instruments, including a per-worker utilization gauge and busy/job
// counters.
func (b *batch) recordSched() {
	s := b.led.Stats()
	if s == nil {
		return
	}
	b.lastSched = s
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
	reg.Gauge("sched.workers_effective").Set(float64(s.WorkersEffective))
	reg.Gauge("sched.serial_fraction").Set(s.SerialFraction)
	reg.Gauge("sched.imbalance_pct").Set(s.ImbalancePct)
	reg.Gauge("sched.measured_speedup_x").Set(s.MeasuredSpeedupX)
	reg.Gauge("sched.contention_wait_us").Set(s.ContentionWaitUS)
	reg.Gauge("sched.dilation_x").Set(s.DilationX)
	for _, w := range s.Workers {
		reg.Gauge(fmt.Sprintf("sched.worker.%d.utilization", w.Worker)).Set(w.Utilization)
		reg.Counter(fmt.Sprintf("sched.worker.%d.jobs", w.Worker)).Add(uint64(w.Jobs))
		reg.Counter(fmt.Sprintf("sched.worker.%d.busy_us", w.Worker)).Add(uint64(w.BusyUS))
	}
}
