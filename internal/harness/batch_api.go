package harness

import (
	"fmt"

	"interplab/internal/alphasim"
	"interplab/internal/core"
)

// This file is the scheduler's exported face for callers outside the
// experiment set: today perfbench, which times the scheduler on batches of
// its own.  An exported Batch has the experiments' error contract: Run
// returns the first error in submission order, every job before that one
// runs, and jobs after it are abandoned once a worker has seen it fail.

// BatchJob describes one measurement submitted to an exported Batch.
type BatchJob struct {
	// Kind selects the measurement: "measure" (software metrics only),
	// "pipeline" (through the simulated processor, using Config), or
	// "sweep" (through the instruction-cache sweep).  A pipeline job may
	// carry a Sweep too: its one guest run then feeds both, and its result
	// is the pipeline measurement with the sweep's points filled.  A sweep
	// must be private to its job — jobs run concurrently.
	Kind    string
	Program core.Program
	Config  alphasim.Config
	Sweep   *alphasim.ICacheSweep
}

// Batch is an exported measurement batch: submit jobs, then run them on
// Options.Parallelism workers.
type Batch struct {
	b *batch
}

// NewBatch starts an exported batch running under opt (Parallelism,
// Telemetry, Tracer, Cache; Out and Manifest are unused).
func NewBatch(opt Options) *Batch {
	return &Batch{b: opt.newBatch()}
}

// Submit enqueues one job, validating its kind.
func (b *Batch) Submit(bj BatchJob) (*Job, error) {
	switch bj.Kind {
	case "measure", "pipeline":
	case "sweep":
		if bj.Sweep == nil {
			return nil, fmt.Errorf("harness: sweep job for %s needs a sweep", bj.Program.ID())
		}
	default:
		return nil, fmt.Errorf("harness: unknown job kind %q (measure, pipeline, sweep)", bj.Kind)
	}
	j := b.b.addJob(&job{kind: bj.Kind, prog: bj.Program, cfg: bj.Config, sweep: bj.Sweep})
	return &Job{j: j}, nil
}

// Run executes the submitted jobs and returns the first error in
// submission order; jobs after a failure may never run.
func (b *Batch) Run() error {
	return b.b.run()
}

// Job is one submitted measurement's handle.
type Job struct {
	j *job
}

// Err returns the job's measurement error, if any.
func (j *Job) Err() error { return j.j.err }
