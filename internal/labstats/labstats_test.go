package labstats

import (
	"math"
	"strings"
	"testing"
)

// eq asserts exact-to-epsilon agreement: every number below is determined
// by the synthetic timeline, so tolerance is rounding only.
func eq(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// ran is the ledger row of job i run to completion on worker w over
// [startMS, finishMS), claimed as it started.
func ran(i, w int, startMS, finishMS float64) JobRecord {
	j := JobRecord{Index: i, Kind: "measure", Program: "Sys/prog", Worker: w,
		ClaimUS: 1000 * startMS, StartUS: 1000 * startMS, FinishUS: 1000 * finishMS, Outcome: OutcomeOK}
	j.DurUS = j.FinishUS - j.StartUS
	return j
}

// TestLedgerArithmeticTwoWorkers folds this timeline (ms) on 2 workers:
//
//	worker 0: j0 [0,100)               j2 [100,200)
//	worker 1: j1 [0,50)  j3 [50,250)
//
// Known answers: wall 250, work 450, serial window [200,250) (only j3 in
// flight) so serial fraction = 50/450 = 1/9 and overlap 450/250 = 1.8.
func TestLedgerArithmeticTwoWorkers(t *testing.T) {
	jobs := []JobRecord{ran(0, 0, 0, 100), ran(1, 1, 0, 50), ran(2, 0, 100, 200), ran(3, 1, 50, 250)}
	s := Compute(jobs, 2, 2, 0, 250_000)
	eq(t, "WallUS", s.WallUS, 250_000)
	eq(t, "TotalBusyUS", s.TotalBusyUS, 450_000)
	eq(t, "SerialUS", s.SerialUS, 50_000)
	eq(t, "SerialFraction", s.SerialFraction, 50.0/450.0)
	eq(t, "OverlapX", s.OverlapX, 1.8)
	eq(t, "CriticalPathUS", s.CriticalPathUS, 200_000)

	if len(s.Workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(s.Workers))
	}
	eq(t, "w0.BusyUS", s.Workers[0].BusyUS, 200_000)
	eq(t, "w0.IdleUS", s.Workers[0].IdleUS, 50_000)
	eq(t, "w0.Utilization", s.Workers[0].Utilization, 0.8)
	eq(t, "w1.BusyUS", s.Workers[1].BusyUS, 250_000)
	eq(t, "w1.IdleUS", s.Workers[1].IdleUS, 0)
	eq(t, "w1.Utilization", s.Workers[1].Utilization, 1.0)
	// Busy + idle must sum to wall for every worker — the report's
	// acceptance identity, exact here.
	for _, w := range s.Workers {
		eq(t, "busy+idle", w.BusyUS+w.IdleUS, s.WallUS)
	}
	// Imbalance: busy {200,250}ms, mean 225 -> (250-225)/225.
	eq(t, "ImbalancePct", s.ImbalancePct, 100*25.0/225.0)

	if s.Jobs != (JobCounts{Enqueued: 4, Claimed: 4, Finished: 4}) {
		t.Errorf("job counts = %+v", s.Jobs)
	}
}

// TestLedgerArithmeticSerial pins the degenerate single-worker shape:
// serial fraction 1, overlap 1, zero imbalance.
func TestLedgerArithmeticSerial(t *testing.T) {
	a, b := ran(0, 0, 0, 30), ran(1, 0, 30, 100)
	b.Kind = "pipeline"
	s := Compute([]JobRecord{a, b}, 1, 1, 0, 100_000)
	eq(t, "WallUS", s.WallUS, 100_000)
	eq(t, "TotalBusyUS", s.TotalBusyUS, 100_000)
	eq(t, "SerialFraction", s.SerialFraction, 1)
	eq(t, "OverlapX", s.OverlapX, 1)
	eq(t, "ImbalancePct", s.ImbalancePct, 0)
	eq(t, "w0.Utilization", s.Workers[0].Utilization, 1)
}

// TestLedgerBalanceWithAbandonment pins the ledger identity on the error
// path: enqueued = claimed + unclaimed and claimed = finished + abandoned,
// with the error counted among the finished.
func TestLedgerBalanceWithAbandonment(t *testing.T) {
	// j0 succeeds, j1 fails, j2 is claimed-then-abandoned, j3..j5 never
	// claimed.
	failed := ran(1, 1, 10, 15)
	failed.Outcome = OutcomeError
	jobs := []JobRecord{
		ran(0, 0, 0, 10),
		failed,
		{Index: 2, Worker: 0, ClaimUS: 15_000, Outcome: OutcomeAbandoned},
		{Index: 3, Worker: -1, Outcome: OutcomeUnclaimed},
		{Index: 4, Worker: -1, Outcome: OutcomeUnclaimed},
		{Index: 5, Worker: -1, Outcome: OutcomeUnclaimed},
	}
	s := Compute(jobs, 2, 2, 0, 15_000)
	want := JobCounts{Enqueued: 6, Claimed: 3, Finished: 2, Errors: 1, Abandoned: 1, Unclaimed: 3}
	if s.Jobs != want {
		t.Errorf("job counts = %+v, want %+v", s.Jobs, want)
	}
	if s.Jobs.Enqueued != s.Jobs.Claimed+s.Jobs.Unclaimed {
		t.Error("enqueued != claimed + unclaimed")
	}
	if s.Jobs.Claimed != s.Jobs.Finished+s.Jobs.Abandoned {
		t.Error("claimed != finished + abandoned")
	}
}

// TestConcurrencyProfileHandoff: a back-to-back handoff (one job finishing
// at the same instant another starts) is serial, not overlap.
func TestConcurrencyProfileHandoff(t *testing.T) {
	jobs := []JobRecord{
		{StartUS: 0, FinishUS: 100, DurUS: 100, Outcome: OutcomeOK, Worker: 0},
		{StartUS: 100, FinishUS: 200, DurUS: 100, Outcome: OutcomeOK, Worker: 1},
	}
	s := Compute(jobs, 2, 2, 0, 200)
	eq(t, "SerialFraction", s.SerialFraction, 1)
	eq(t, "SerialUS", s.SerialUS, 200)
	eq(t, "OverlapX", s.OverlapX, 1)
}

// TestWriteReportShape: the text report carries the headline numbers and
// one row per worker.
func TestWriteReportShape(t *testing.T) {
	jobs := []JobRecord{
		{Index: 0, Kind: "measure", Program: "A/a", Worker: 0, StartUS: 0, FinishUS: 100_000, DurUS: 100_000, Outcome: OutcomeOK},
		{Index: 1, Kind: "measure", Program: "B/b", Worker: 1, StartUS: 0, FinishUS: 50_000, DurUS: 50_000, Outcome: OutcomeOK},
	}
	s := Compute(jobs, 4, 2, 0, 100_000)
	var sb strings.Builder
	if err := s.WriteReport(&sb, "table1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"table1", "2 workers (requested 4)", "serial fraction", "imbalance", "jobs: 2 enqueued"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < 7 {
		t.Errorf("report too short (%d lines):\n%s", lines, out)
	}
}
