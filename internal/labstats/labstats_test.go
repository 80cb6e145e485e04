package labstats

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock: the ledger arithmetic must depend
// only on recorded timestamps, never on the wall clock.
type fakeClock struct{ at time.Time }

func newFakeClock() *fakeClock { return &fakeClock{at: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time          { return c.at }
func (c *fakeClock) advance(d time.Duration) { c.at = c.at.Add(d) }

// eq asserts exact-to-epsilon agreement: every number below is determined
// by the synthetic timeline, so tolerance is rounding only.
func eq(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestLedgerArithmeticTwoWorkers scripts this timeline (ms) on 2 workers:
//
//	worker 0: j0 [0,100)               j2 [100,200)
//	worker 1: j1 [0,50)  j3 [50,250)
//
// Known answers: wall 250, work 450, serial window [200,250) (only j3 in
// flight) so serial fraction = 50/450 = 1/9 and overlap 450/250 = 1.8.
func TestLedgerArithmeticTwoWorkers(t *testing.T) {
	clk := newFakeClock()
	l := NewLedger()
	l.SetClock(clk.now)
	jobs := make([]int, 4)
	for i := range jobs {
		jobs[i] = l.Enqueue("measure", "Sys/prog")
	}
	l.Begin(2, 2)

	run := func(i, worker int, start, finish time.Duration) {
		clk.at = time.Unix(1000, 0).Add(start)
		l.Claim(jobs[i], worker)
		l.Start(jobs[i])
		clk.at = time.Unix(1000, 0).Add(finish)
		l.Finish(jobs[i], false)
	}
	run(0, 0, 0, 100*time.Millisecond)
	run(1, 1, 0, 50*time.Millisecond)
	run(2, 0, 100*time.Millisecond, 200*time.Millisecond)
	run(3, 1, 50*time.Millisecond, 250*time.Millisecond)
	clk.at = time.Unix(1000, 0).Add(250 * time.Millisecond)
	l.End()

	s := l.Stats()
	if s == nil {
		t.Fatal("Stats returned nil")
	}
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
	clk := newFakeClock()
	l := NewLedger()
	l.SetClock(clk.now)
	a := l.Enqueue("measure", "A/a")
	b := l.Enqueue("pipeline", "B/b")
	l.Begin(1, 1)
	l.Claim(a, 0)
	l.Start(a)
	clk.advance(30 * time.Millisecond)
	l.Finish(a, false)
	l.Claim(b, 0)
	l.Start(b)
	clk.advance(70 * time.Millisecond)
	l.Finish(b, false)
	l.End()

	s := l.Stats()
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
	clk := newFakeClock()
	l := NewLedger()
	l.SetClock(clk.now)
	idx := make([]int, 6)
	for i := range idx {
		idx[i] = l.Enqueue("measure", "Sys/prog")
	}
	l.Begin(2, 2)
	// j0 succeeds, j1 fails, j2 is claimed-then-abandoned, j3..j5 never
	// claimed.
	l.Claim(idx[0], 0)
	l.Start(idx[0])
	clk.advance(10 * time.Millisecond)
	l.Finish(idx[0], false)
	l.Claim(idx[1], 1)
	l.Start(idx[1])
	clk.advance(5 * time.Millisecond)
	l.Finish(idx[1], true)
	l.Abandon(idx[2], 0)
	l.End()

	s := l.Stats()
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

// TestNilLedgerIsDisabled: the nil ledger is the disabled path, as
// everywhere in this lab.
func TestNilLedgerIsDisabled(t *testing.T) {
	var l *Ledger
	if i := l.Enqueue("measure", "x"); i != -1 {
		t.Errorf("nil Enqueue = %d, want -1", i)
	}
	l.Begin(2, 2)
	l.Claim(0, 0)
	l.Start(0)
	l.Finish(0, false)
	l.Abandon(0, 0)
	l.End()
	if l.Stats() != nil {
		t.Error("nil ledger Stats should be nil")
	}
}

// TestRuntimeSnapshotDelta: snapshots move monotonically and the delta
// attributes allocation to the interval.
func TestRuntimeSnapshotDelta(t *testing.T) {
	before := ReadRuntimeSnapshot()
	waste := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		waste = append(waste, make([]byte, 4096))
	}
	_ = waste
	after := ReadRuntimeSnapshot()
	d := before.DeltaTo(after)
	if d.AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d, want >= 4MB-ish of tracked allocation", d.AllocBytes)
	}
	if d.GoroutinesBefore <= 0 || d.GoroutinesAfter <= 0 {
		t.Errorf("goroutine counts not captured: %+v", d)
	}
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
