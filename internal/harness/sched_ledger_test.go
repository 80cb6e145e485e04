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
// error contract under parallelism > 1, now with the ledger watching: the
// returned error is the first in submission order, nothing after it is
// recorded in the manifest, every unrecorded job is either unrun
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
	// The prefix through the failing job was claimed in cursor order and
	// fully executed before collect.
	if s.Jobs.Finished <= failAt {
		t.Errorf("finished = %d, want > %d (the prefix plus the failing job)", s.Jobs.Finished, failAt)
	}

	// Cross-check the ledger against the jobs themselves: every job after
	// the first error is either unrecorded (not in the manifest, checked
	// above) or unrun, and every unrun job is abandoned or unclaimed.
	outcomes := make(map[int]string, n)
	for _, jr := range s.Ledger {
		outcomes[jr.Index] = jr.Outcome
	}
	for i, j := range b.jobs {
		if j.ran {
			if out := outcomes[j.lidx]; out != labstats.OutcomeOK && out != labstats.OutcomeError {
				t.Errorf("job %d ran but ledger says %q", i, out)
			}
			continue
		}
		if out := outcomes[j.lidx]; out != labstats.OutcomeAbandoned && out != labstats.OutcomeUnclaimed {
			t.Errorf("job %d never ran but ledger says %q", i, out)
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
	if s.Runtime == nil || s.Runtime.AllocBytes == 0 {
		t.Error("runtime snapshot delta missing or empty")
	}
	if len(s.Ledger) != s.Jobs.Enqueued {
		t.Errorf("ledger has %d records for %d jobs", len(s.Ledger), s.Jobs.Enqueued)
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
