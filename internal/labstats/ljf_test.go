package labstats

import (
	"fmt"
	"testing"
	"time"
)

// slot is one job's simulated schedule: when it ran and on which worker.
type slot struct {
	start, finish time.Duration
	worker        int
}

// listSchedule simulates greedy list scheduling: jobs are claimed in the
// given order, each by whichever worker frees up first (ties to the lower
// id).  This is exactly what the harness's atomic-cursor claiming does
// when job durations are deterministic, so the resulting timeline is the
// one a real batch would produce — without running anything.
func listSchedule(durs []time.Duration, order []int, workers int) []slot {
	free := make([]time.Duration, workers)
	slots := make([]slot, len(durs))
	for _, j := range order {
		w := 0
		for k := 1; k < workers; k++ {
			if free[k] < free[w] {
				w = k
			}
		}
		slots[j] = slot{start: free[w], finish: free[w] + durs[j], worker: w}
		free[w] = slots[j].finish
	}
	return slots
}

// replayTimeline drives a real Ledger through a simulated schedule on a
// fake clock and folds it into stats.  Claim and start coincide (the
// simulator has no claim-to-start gap), and End lands at the makespan.
func replayTimeline(durs []time.Duration, order []int, workers int) *SchedStats {
	clk := newFakeClock()
	epoch := clk.at
	l := NewLedger()
	l.SetClock(clk.now)
	l.SetPolicy(PolicyLJF)
	for i := range durs {
		l.Enqueue("measure", fmt.Sprintf("sim/j%d", i))
	}
	l.Begin(workers, workers)
	slots := listSchedule(durs, order, workers)
	var makespan time.Duration
	for i, s := range slots {
		clk.at = epoch.Add(s.start)
		l.Claim(i, s.worker)
		l.Start(i)
		clk.at = epoch.Add(s.finish)
		l.Finish(i, false)
		if s.finish > makespan {
			makespan = s.finish
		}
	}
	clk.at = epoch.Add(makespan)
	l.End()
	return l.Stats()
}

// fifoOrder is the identity permutation — submission-order claiming.
func fifoOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// estimates converts simulated durations to perfect cost estimates in
// microseconds, the input LJFOrder ranks by.
func estimates(durs []time.Duration) []float64 {
	ests := make([]float64, len(durs))
	for i, d := range durs {
		ests[i] = float64(d) / float64(time.Microsecond)
	}
	return ests
}

// TestLJFBeatsFIFOOnImbalance is the claim-policy's existence proof: with
// one long job submitted last, FIFO claiming strands it on a worker after
// the short jobs have already balanced out, while LJF starts it first and
// packs the short jobs around it.  The ledgers — real Ledger arithmetic
// over both simulated timelines — must show LJF with a strictly shorter
// wall and zero imbalance where FIFO pays 33%.
func TestLJFBeatsFIFOOnImbalance(t *testing.T) {
	ms := time.Millisecond
	durs := []time.Duration{3 * ms, 3 * ms, 3 * ms, 9 * ms}

	fifo := replayTimeline(durs, fifoOrder(len(durs)), 2)
	ljf := replayTimeline(durs, LJFOrder(estimates(durs)), 2)

	eq(t, "fifo wall", fifo.WallUS, 12000) // 3+9 chained on one worker
	eq(t, "ljf wall", ljf.WallUS, 9000)    // the 9ms job alone; 3+3+3 beside it
	if ljf.WallUS >= fifo.WallUS {
		t.Errorf("LJF wall %v did not beat FIFO wall %v", ljf.WallUS, fifo.WallUS)
	}
	eq(t, "fifo imbalance pct", fifo.ImbalancePct, 100*(12.0-9.0)/9.0)
	eq(t, "ljf imbalance pct", ljf.ImbalancePct, 0)
	eq(t, "fifo overlap", fifo.OverlapX, 18.0/12.0)
	eq(t, "ljf overlap", ljf.OverlapX, 2)

	// The mechanism, visible in the ledger: LJF claims the longest job
	// first (at t=0), FIFO only after a round of short ones.
	long := 3 // index of the 9ms job
	eq(t, "ljf long-job claim", ljf.Ledger[long].ClaimUS, 0)
	eq(t, "fifo long-job claim", fifo.Ledger[long].ClaimUS, 3000)
}

// TestLJFAchievesCriticalPath: when the longest job is the critical path,
// LJF's wall time equals it exactly — no schedule of independent jobs can
// do better — while FIFO leaves the giant for last and pays its full
// length on top of an already-balanced prefix.
func TestLJFAchievesCriticalPath(t *testing.T) {
	ms := time.Millisecond
	durs := []time.Duration{2 * ms, 2 * ms, 2 * ms, 2 * ms, 8 * ms}

	fifo := replayTimeline(durs, fifoOrder(len(durs)), 2)
	ljf := replayTimeline(durs, LJFOrder(estimates(durs)), 2)

	eq(t, "critical path", ljf.CriticalPathUS, 8000)
	eq(t, "ljf wall == critical path", ljf.WallUS, ljf.CriticalPathUS)
	eq(t, "fifo wall", fifo.WallUS, 12000) // 2+2 prefix, then the 8ms job alone
	eq(t, "ljf overlap", ljf.OverlapX, 2)
	eq(t, "fifo overlap", fifo.OverlapX, 16.0/12.0)
}

// TestLJFOrderPermutation pins the sort itself: descending by estimate,
// ties stable in submission order, and uniform estimates degenerating to
// the identity — the property stop-at-first-error prefix semantics lean
// on for uniform batches.
func TestLJFOrderPermutation(t *testing.T) {
	got := LJFOrder([]float64{1, 5, 3, 5, 2})
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LJFOrder = %v, want %v", got, want)
		}
	}
	uniform := LJFOrder([]float64{7, 7, 7, 7})
	for i, j := range uniform {
		if i != j {
			t.Fatalf("uniform estimates must claim FIFO, got %v", uniform)
		}
	}
	if empty := LJFOrder(nil); len(empty) != 0 {
		t.Fatalf("LJFOrder(nil) = %v", empty)
	}
}

// TestLedgerPolicyEstimateAndAbandonAccounting exercises the ledger's
// bookkeeping end to end on a synthetic timeline: the claim policy and
// worker counts pass through to the stats, per-job estimates land in the
// ledger records, dilation is measured-over-estimated across prior-backed
// jobs only, and the balance equations hold with an abandoned and an
// unclaimed job in the books.
func TestLedgerPolicyEstimateAndAbandonAccounting(t *testing.T) {
	ms := time.Millisecond
	clk := newFakeClock()
	epoch := clk.at
	l := NewLedger()
	l.SetClock(clk.now)
	l.SetPolicy(PolicyLJF)

	l.Enqueue("pipeline", "sim/p") // 0
	l.Enqueue("measure", "sim/a")  // 1
	l.Enqueue("measure", "sim/b")  // 2
	l.Enqueue("sweep", "sim/s")    // 3
	l.Enqueue("measure", "sim/c")  // 4: abandoned mid-batch
	l.Enqueue("measure", "sim/d")  // 5: never claimed
	l.SetEstimate(0, 10, EstStatic)
	l.SetEstimate(1, 1000, EstPrior)
	l.SetEstimate(2, 500, EstPrior)
	l.Begin(2, 2)

	run := func(i, worker int, start, finish time.Duration) {
		clk.at = epoch.Add(start)
		l.Claim(i, worker)
		l.Start(i)
		clk.at = epoch.Add(finish)
		l.Finish(i, false)
	}
	run(0, 0, 0, 1*ms)    // pipeline p: static estimate
	run(1, 0, 1*ms, 3*ms) // measure a: 2000us against a 1000us prior
	run(2, 1, 1*ms, 2*ms) // measure b: 1000us against a 500us prior
	clk.at = epoch.Add(3 * ms)
	l.Abandon(4, 1)
	run(3, 0, 3*ms, 4*ms) // sweep s: no estimate
	clk.at = epoch.Add(4 * ms)
	l.End()

	s := l.Stats()
	if s.ClaimPolicy != PolicyLJF {
		t.Errorf("claim policy = %q, want %q", s.ClaimPolicy, PolicyLJF)
	}
	if s.WorkersRequested != 2 || s.WorkersEffective != 2 || len(s.Workers) != 2 {
		t.Errorf("workers = %d requested / %d effective / %d rows, want 2/2/2",
			s.WorkersRequested, s.WorkersEffective, len(s.Workers))
	}
	if s.CPUs <= 0 || s.GOMAXPROCS <= 0 {
		t.Errorf("cpu accounting missing: cpus=%d gomaxprocs=%d", s.CPUs, s.GOMAXPROCS)
	}

	// Balance with an abandoned and an unclaimed job in the books.
	if s.Jobs.Enqueued != 6 || s.Jobs.Claimed != 5 || s.Jobs.Finished != 4 ||
		s.Jobs.Abandoned != 1 || s.Jobs.Unclaimed != 1 {
		t.Errorf("job counts = %+v", s.Jobs)
	}
	if s.Jobs.Enqueued != s.Jobs.Claimed+s.Jobs.Unclaimed ||
		s.Jobs.Claimed != s.Jobs.Finished+s.Jobs.Abandoned {
		t.Errorf("ledger does not balance: %+v", s.Jobs)
	}

	// Dilation counts only the prior-backed finished jobs: (2000 + 1000)
	// measured over (1000 + 500) estimated.  The static pipeline estimate
	// and the abandoned job must not contaminate it.
	eq(t, "dilation", s.DilationX, 2)

	// Estimates pass through to the ledger records verbatim.
	if r := s.Ledger[1]; r.EstUS != 1000 || r.EstSource != EstPrior {
		t.Errorf("job 1 estimate = %v/%q, want 1000/%q", r.EstUS, r.EstSource, EstPrior)
	}
	if r := s.Ledger[0]; r.EstUS != 10 || r.EstSource != EstStatic {
		t.Errorf("job 0 estimate = %v/%q, want 10/%q", r.EstUS, r.EstSource, EstStatic)
	}
	if r := s.Ledger[4]; r.Outcome != OutcomeAbandoned || r.Worker != 1 {
		t.Errorf("abandoned job record = %+v", r)
	}
	if r := s.Ledger[5]; r.Outcome != OutcomeUnclaimed {
		t.Errorf("unclaimed job record = %+v", r)
	}
}

// TestCostModelProvenanceAndConvergence covers the estimate lifecycle: a
// cold model orders kinds by static weight, one observation flips the
// exact (kind, program, scale) key to a prior, further observations track
// the EWMA, and unseen shapes scale their static weight by the observed
// global mean.
func TestCostModelProvenanceAndConvergence(t *testing.T) {
	m := NewCostModel()

	// Cold: static estimates, ordered pipeline > sweep > measure, and
	// linear in scale.
	kinds := []string{"pipeline", "sweep", "measure"}
	var prev float64
	for i, kind := range kinds {
		est, src := m.Estimate(kind, "p", "", 1)
		if src != EstStatic {
			t.Errorf("cold %s estimate source = %q, want %q", kind, src, EstStatic)
		}
		if i > 0 && est >= prev {
			t.Errorf("cold ordering broken: %s (%v) >= %s (%v)", kind, est, kinds[i-1], prev)
		}
		prev = est
	}
	full, _ := m.Estimate("measure", "p", "", 1)
	half, _ := m.Estimate("measure", "p", "", 0.5)
	eq(t, "scale halves the static estimate", half, full/2)

	// One observation: the exact key becomes a prior at the observed value.
	m.Observe("measure", "p", "", 1, 2000)
	est, src := m.Estimate("measure", "p", "", 1)
	if src != EstPrior {
		t.Fatalf("post-observe source = %q, want %q", src, EstPrior)
	}
	eq(t, "first prior is the observation", est, 2000)

	// Second observation: EWMA with alpha 0.4.
	m.Observe("measure", "p", "", 1, 1000)
	est, _ = m.Estimate("measure", "p", "", 1)
	eq(t, "ewma after second observation", est, 2000+ewmaAlpha*(1000-2000))

	// An unseen program of the same kind stays static but is now scaled by
	// the observed global mean (2000, then EWMA'd to 1600 in weight-1
	// units), not the bare weight.
	other, src := m.Estimate("measure", "q", "", 1)
	if src != EstStatic {
		t.Errorf("unseen program source = %q, want %q", src, EstStatic)
	}
	eq(t, "static scaled by observed mean", other, 1600)
	pipe, _ := m.Estimate("pipeline", "q", "", 1)
	eq(t, "unseen kind keeps its weight ratio", pipe, 3*1600)

	// A different scale is a different key: still static.
	_, src = m.Estimate("measure", "p", "", 0.5)
	if src != EstStatic {
		t.Errorf("different scale should miss the prior, got %q", src)
	}

	// Nil model degrades to bare weights.
	var nilModel *CostModel
	est, src = nilModel.Estimate("sweep", "p", "", 1)
	if est != 2 || src != EstStatic {
		t.Errorf("nil model estimate = %v/%q, want 2/static", est, src)
	}
	nilModel.Observe("measure", "p", "", 1, 100) // must not panic
}

// TestCostModelKeysVariants: two variants of one program — an
// interpreter's optimization tiers, or ablation arms — keep separate
// estimates, so longest-job-first does not claim one at the other's cost.
func TestCostModelKeysVariants(t *testing.T) {
	m := NewCostModel()
	m.Observe("pipeline", "MIPSI/des", "tier-baseline", 1, 1000)
	m.Observe("pipeline", "MIPSI/des", "tier-super", 1, 400)
	for _, c := range []struct {
		variant string
		want    float64
	}{{"tier-baseline", 1000}, {"tier-super", 400}} {
		est, src := m.Estimate("pipeline", "MIPSI/des", c.variant, 1)
		if src != EstPrior {
			t.Errorf("%s: source = %q, want %q", c.variant, src, EstPrior)
		}
		eq(t, c.variant+" estimate", est, c.want)
	}
	if _, src := m.Estimate("pipeline", "MIPSI/des", "", 1); src != EstStatic {
		t.Errorf("unobserved variant source = %q, want %q", src, EstStatic)
	}
}

// TestCostModelEntryBound: the per-process model stops admitting new keys
// at its cap, but existing keys keep converging — a scale-churning caller
// can't grow it without bound, and can't freeze it either.
func TestCostModelEntryBound(t *testing.T) {
	m := NewCostModel()
	for i := 0; i < costModelMaxEntries+100; i++ {
		m.Observe("measure", fmt.Sprintf("p%d", i), "", 1, 100)
	}
	m.mu.Lock()
	n := len(m.ewma)
	m.mu.Unlock()
	if n != costModelMaxEntries {
		t.Errorf("model holds %d entries, want the %d cap", n, costModelMaxEntries)
	}
	// A key past the cap was never admitted.
	_, src := m.Estimate("measure", fmt.Sprintf("p%d", costModelMaxEntries+50), "", 1)
	if src != EstStatic {
		t.Errorf("overflow key source = %q, want %q", src, EstStatic)
	}
	// An admitted key still updates at the cap.
	m.Observe("measure", "p0", "", 1, 200)
	est, src := m.Estimate("measure", "p0", "", 1)
	if src != EstPrior {
		t.Fatalf("admitted key source = %q, want %q", src, EstPrior)
	}
	eq(t, "admitted key still converges", est, 100+ewmaAlpha*(200-100))
}
