package harness

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"interplab/internal/core"
	"interplab/internal/labstats"
	"interplab/internal/telemetry"
)

// TestStopAtFirstErrorLedgerBalance pins the scheduler's stop-at-first-
// error contract under parallelism > 1, with the ledger watching: the
// returned error is the first in submission order, exactly the jobs before
// it are recorded in the manifest, every job after it is either unrun
// (abandoned/unclaimed in ledger terms) or ran-but-uncollected, and the
// ledger balances exactly — enqueued = claimed + unclaimed and claimed =
// finished + abandoned — even though the batch died mid-flight.
func TestStopAtFirstErrorLedgerBalance(t *testing.T) {
	const n = 32
	const failAt = 5
	man := telemetry.NewManifest(1)
	opt := Options{Parallelism: 4, Out: io.Discard}
	opt.rec = man.StartRun("synthetic")
	b := opt.newBatch()
	for i := 0; i < n; i++ {
		i := i
		b.measure(core.Program{
			System: "X", Name: fmt.Sprintf("j%02d", i),
			Run: func(ctx *core.Ctx) error {
				time.Sleep(time.Millisecond)
				switch i {
				case failAt:
					return errors.New("boom at 5")
				case 20:
					return errors.New("boom at 20")
				}
				return nil
			},
		})
	}
	err := b.run()
	if err == nil || !strings.Contains(err.Error(), "boom at 5") {
		t.Fatalf("run() = %v, want the submission-order-first error (boom at 5)", err)
	}

	// The serial semantics: exactly the prefix before the first error is
	// recorded, in order.
	if got := len(opt.rec.Measurements); got != failAt {
		t.Errorf("recorded %d measurements, want the %d before the first error", got, failAt)
	}
	for i, mm := range opt.rec.Measurements {
		if want := fmt.Sprintf("X/j%02d", i); mm.Program != want {
			t.Errorf("measurement %d = %q, want %q", i, mm.Program, want)
		}
	}

	if len(opt.rec.Sched) != 1 {
		t.Fatalf("got %d sched blocks, want 1", len(opt.rec.Sched))
	}
	s := opt.rec.Sched[0]
	if s.Jobs.Enqueued != n {
		t.Errorf("enqueued = %d, want %d", s.Jobs.Enqueued, n)
	}
	if s.Jobs.Enqueued != s.Jobs.Claimed+s.Jobs.Unclaimed {
		t.Errorf("ledger does not balance: enqueued %d != claimed %d + unclaimed %d",
			s.Jobs.Enqueued, s.Jobs.Claimed, s.Jobs.Unclaimed)
	}
	if s.Jobs.Claimed != s.Jobs.Finished+s.Jobs.Abandoned {
		t.Errorf("ledger does not balance: claimed %d != finished %d + abandoned %d",
			s.Jobs.Claimed, s.Jobs.Finished, s.Jobs.Abandoned)
	}
	if s.Jobs.Errors < 1 {
		t.Errorf("errors = %d, want >= 1", s.Jobs.Errors)
	}
	// Every job through the failing one ran, whatever the claim order.
	if s.Jobs.Finished <= failAt {
		t.Errorf("finished = %d, want > %d (the prefix plus the failing job)", s.Jobs.Finished, failAt)
	}

	// Cross-check the rows against submission order: every job before the
	// first error ran to success, that job ran to its error, and every row
	// ends in a final outcome — each job after the failing one either ran
	// uncollected or was never run.
	for i, jr := range s.Ledger {
		if jr.Index != i {
			t.Errorf("ledger row %d has index %d", i, jr.Index)
		}
		switch {
		case i < failAt:
			if jr.Outcome != labstats.OutcomeOK {
				t.Errorf("job %d before the first error: outcome %q, want %q", i, jr.Outcome, labstats.OutcomeOK)
			}
		case i == failAt:
			if jr.Outcome != labstats.OutcomeError {
				t.Errorf("failing job %d: outcome %q, want %q", i, jr.Outcome, labstats.OutcomeError)
			}
		}
		switch jr.Outcome {
		case labstats.OutcomeUnclaimed, labstats.OutcomeOK, labstats.OutcomeError, labstats.OutcomeAbandoned:
		default:
			t.Errorf("job %d ended with outcome %q after the batch drained", i, jr.Outcome)
		}
	}
}

// TestStopAtFirstErrorIgnoresClaimOrder: priors make longest-job-first
// claim the failing job first and a later failing job second, and both
// fail at once while the jobs claimed beside them sleep.  The workers must
// still run every job before the first failure in submission order, so the
// batch records exactly those and returns that failure's error, as the
// serial path does.
func TestStopAtFirstErrorIgnoresClaimOrder(t *testing.T) {
	const n, failAt, failLater = 12, 5, 9
	rec := telemetry.NewManifest(1).StartRun("claim-order")
	opt := Options{Parallelism: 4, Out: io.Discard, rec: rec}
	b := opt.newBatch()
	for i := 0; i < n; i++ {
		i := i
		p := core.Program{
			System: "X", Name: fmt.Sprintf("claim-order-%02d", i),
			Run: func(*core.Ctx) error {
				if i == failAt || i == failLater {
					return fmt.Errorf("boom at %d", i)
				}
				time.Sleep(20 * time.Millisecond)
				return nil
			},
		}
		// Every job gets a prior, so no estimate hangs on the global mean
		// other tests leave behind; a sleeping job's prior stays near its
		// 20 ms, far below the failing jobs'.
		est := 1.0
		switch i {
		case failAt:
			est = 1e6
		case failLater:
			est = 5e5
		}
		labstats.GlobalCostModel().Observe("measure", p.ID(), "", opt.scale(), est)
		b.measure(p)
	}
	err := b.run()
	if err == nil || !strings.Contains(err.Error(), "boom at 5") {
		t.Fatalf("run() = %v, want the submission-order-first error (boom at 5)", err)
	}
	if got := len(rec.Measurements); got != failAt {
		t.Errorf("recorded %d measurements, want the %d before the first error", got, failAt)
	}
	for i, mm := range rec.Measurements {
		if want := fmt.Sprintf("X/claim-order-%02d", i); mm.Program != want {
			t.Errorf("measurement %d = %q, want %q", i, mm.Program, want)
		}
	}
	rows := rec.Sched[0].Ledger
	for i, jr := range rows {
		if i != failAt && jr.EstUS >= rows[failAt].EstUS {
			t.Fatalf("job %d estimate %v does not rank below the failing job's %v; "+
				"longest-job-first would not claim the failing job first", i, jr.EstUS, rows[failAt].EstUS)
		}
	}
}

// TestSchedBlockOnParallelRun is the ledger's acceptance check at the
// harness level: a parallelism-4 table1 run records one sched block whose
// jobs are exactly its recorded measurements, whose per-worker busy+idle
// sums to the batch wall time, whose utilization is positive for every
// worker, and whose headline ratios are sane.  The batch must also reach
// the registry's cumulative sched.* counters.
func TestSchedBlockOnParallelRun(t *testing.T) {
	man := telemetry.NewManifest(0.1)
	reg := telemetry.NewRegistry()
	opt := Options{Scale: 0.1, Out: io.Discard, Parallelism: 4, Manifest: man, Telemetry: reg}
	if err := Run("table1", opt); err != nil {
		t.Fatal(err)
	}
	if len(man.Runs) != 1 || len(man.Runs[0].Sched) != 1 {
		t.Fatalf("want 1 run with 1 sched block, got %+v", man.Runs)
	}
	s := man.Runs[0].Sched[0]
	if s.WorkersRequested != 4 || s.WorkersEffective != 4 {
		t.Errorf("workers = %d requested / %d effective, want 4/4", s.WorkersRequested, s.WorkersEffective)
	}
	// A batch holds measurement jobs and nothing else: every finished job
	// is one recorded measurement, and every ledger row is a measurement
	// kind.
	if s.Jobs.Finished != len(man.Runs[0].Measurements) {
		t.Errorf("finished %d jobs, want one per recorded measurement (%d)",
			s.Jobs.Finished, len(man.Runs[0].Measurements))
	}
	for _, jr := range s.Ledger {
		switch jr.Kind {
		case "measure", "pipeline", "sweep":
		default:
			t.Errorf("ledger row %d (%s) has kind %q, want measure, pipeline or sweep",
				jr.Index, jr.Program, jr.Kind)
		}
	}
	if s.ClaimPolicy != labstats.PolicyLJF {
		t.Errorf("claim policy = %q, want %q on a parallel run", s.ClaimPolicy, labstats.PolicyLJF)
	}
	if s.CPUs <= 0 || s.GOMAXPROCS <= 0 {
		t.Errorf("cpu accounting missing: cpus=%d gomaxprocs=%d", s.CPUs, s.GOMAXPROCS)
	}
	for _, jr := range s.Ledger {
		if jr.EstUS <= 0 || jr.EstSource == "" {
			t.Errorf("job %d (%s %s) has no cost estimate: est=%v source=%q",
				jr.Index, jr.Kind, jr.Program, jr.EstUS, jr.EstSource)
		}
	}
	if len(s.Workers) != 4 {
		t.Fatalf("got %d worker rows, want 4", len(s.Workers))
	}
	for _, w := range s.Workers {
		if sum := w.BusyUS + w.IdleUS; math.Abs(sum-s.WallUS) > 0.01*s.WallUS {
			t.Errorf("worker %d busy+idle = %v, want wall %v (±1%%)", w.Worker, sum, s.WallUS)
		}
		if w.Utilization <= 0 || w.Utilization > 1 {
			t.Errorf("worker %d utilization = %v, want (0, 1]", w.Worker, w.Utilization)
		}
		if w.Jobs == 0 {
			t.Errorf("worker %d claimed no jobs", w.Worker)
		}
	}
	if s.SerialFraction < 0 || s.SerialFraction > 1 {
		t.Errorf("serial fraction = %v", s.SerialFraction)
	}
	if s.OverlapX <= 0 {
		t.Errorf("overlap = %v", s.OverlapX)
	}
	if s.CriticalPathUS <= 0 || s.CriticalPathUS > s.WallUS {
		t.Errorf("critical path = %v with wall %v", s.CriticalPathUS, s.WallUS)
	}
	if len(s.Ledger) != s.Jobs.Enqueued {
		t.Errorf("ledger has %d records for %d jobs", len(s.Ledger), s.Jobs.Enqueued)
	}
	// Each job's row: row i is job i (the i-th recorded measurement), its
	// worker is one of the batch's, and it starts no later than it ends.
	for i, jr := range s.Ledger {
		if i < len(man.Runs[0].Measurements) {
			if m := man.Runs[0].Measurements[i]; jr.Index != i || jr.Kind != m.Kind || jr.Program != m.Program {
				t.Errorf("ledger row %d is %d %s %s, want job %d: %s %s",
					i, jr.Index, jr.Kind, jr.Program, i, m.Kind, m.Program)
			}
		}
		if jr.Outcome == labstats.OutcomeOK && (jr.Worker < 0 || jr.Worker >= s.WorkersEffective) {
			t.Errorf("finished row %d ran on worker %d, want one of [0, %d)", i, jr.Worker, s.WorkersEffective)
		}
		if jr.StartUS > jr.FinishUS {
			t.Errorf("row %d starts at %v us, after it finishes at %v us", i, jr.StartUS, jr.FinishUS)
		}
	}

	// Registry surface: the cumulative batch counters.
	if got := reg.Counter("sched.batches").Value(); got != 1 {
		t.Errorf("sched.batches = %d, want 1", got)
	}
	if got := reg.Counter("sched.jobs").Value(); got != uint64(s.Jobs.Finished) {
		t.Errorf("sched.jobs = %d, want %d", got, s.Jobs.Finished)
	}
}

// TestSchedBlockOnSerialRun: the serial path keeps the same books — one
// worker, utilization positive, serial fraction exactly 1 (no overlap is
// possible).
func TestSchedBlockOnSerialRun(t *testing.T) {
	man := telemetry.NewManifest(0.1)
	opt := Options{Scale: 0.1, Out: io.Discard, Parallelism: 1, Manifest: man}
	if err := Run("fig1", opt); err != nil {
		t.Fatal(err)
	}
	s := man.Runs[0].Sched[0]
	if s.WorkersEffective != 1 || len(s.Workers) != 1 {
		t.Fatalf("serial run should report one worker: %+v", s)
	}
	if s.SerialFraction != 1 {
		t.Errorf("serial fraction = %v, want exactly 1", s.SerialFraction)
	}
	if s.ClaimPolicy != labstats.PolicyFIFO {
		t.Errorf("claim policy = %q, want %q on a serial run", s.ClaimPolicy, labstats.PolicyFIFO)
	}
	if s.Workers[0].Utilization <= 0 {
		t.Errorf("utilization = %v, want > 0", s.Workers[0].Utilization)
	}
	if s.Jobs.Abandoned != 0 || s.Jobs.Unclaimed != 0 || s.Jobs.Errors != 0 {
		t.Errorf("clean serial run should have no abandoned/unclaimed/errors: %+v", s.Jobs)
	}
}

// TestClaimInstantsOnWorkerLanes: a traced parallel run marks each job
// claim as an instant event on the claiming worker's lane.
func TestClaimInstantsOnWorkerLanes(t *testing.T) {
	tr := telemetry.NewTracer()
	opt := Options{Scale: 0.1, Out: io.Discard, Parallelism: 4, Tracer: tr}
	if err := Run("fig1", opt); err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, ev := range tr.Events() {
		if ev.Ph == "i" && strings.HasPrefix(ev.Name, "claim ") {
			claims++
			if ev.Tid < 2 {
				t.Errorf("claim instant on lane %d, want a worker lane (>= 2)", ev.Tid)
			}
		}
	}
	if claims == 0 {
		t.Error("no claim instants recorded on a traced parallel run")
	}
}

// TestJobsRunUnderProfilerLabels: every job runs under pprof labels
// naming its experiment, kind, program and variant, serially and on
// parallel workers, so a CPU profile of a run splits host time by job.
// Each job's program finds its own labels on its goroutine in the
// goroutine profile.
func TestJobsRunUnderProfilerLabels(t *testing.T) {
	for _, par := range []int{1, 2} {
		opt := Options{Parallelism: par, Out: io.Discard, experiment: "labels"}
		b := opt.newBatch()
		seen := make([]string, 2)
		for i, v := range []string{"tier-a", "tier-b"} {
			i, v := i, v
			b.measure(core.Program{
				System: "X", Name: "p", Variant: v,
				Run: func(ctx *core.Ctx) error {
					var buf strings.Builder
					if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
						return err
					}
					want := fmt.Sprintf(`"experiment":"labels", "kind":"measure", "program":"X/p", "variant":%q`, v)
					if !strings.Contains(buf.String(), want) {
						return fmt.Errorf("no goroutine carries {%s}:\n%s", want, buf.String())
					}
					seen[i] = v
					return nil
				},
			})
		}
		if err := b.run(); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if seen[0] != "tier-a" || seen[1] != "tier-b" {
			t.Errorf("parallel %d: jobs ran %q", par, seen)
		}
	}
}
