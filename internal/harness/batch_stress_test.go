package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/labstats"
)

// stressEmits is the synthetic workload size: each program walks a 256-word
// routine 50×64 instructions, so every sweep point must count exactly this
// many instruction fetches.
const stressEmits = 50 * 64

// stressProgram builds a cheap deterministic workload that emits real
// instruction events (so sweeps accumulate counts), optionally failing or
// panicking instead.
func stressProgram(name string, fail error, panics bool) core.Program {
	return core.Program{
		System: "X", Name: name,
		Run: func(ctx *core.Ctx) error {
			if panics {
				panic("synthetic panic in " + name)
			}
			if fail != nil {
				return fail
			}
			r := ctx.Image.Routine("loop", 256)
			for k := 0; k < 50; k++ {
				ctx.Probe.Exec(r, 64)
			}
			return nil
		},
	}
}

// stressSweep returns a private 4-point sweep (8/16KB × 1/2-way, 32B
// lines).
func stressSweep() *alphasim.ICacheSweep {
	return alphasim.NewICacheSweep([]int{8, 16}, []int{1, 2}, 32)
}

// TestBatchKeepGoingStress hammers the exported Batch's keep-going
// contract at parallelism 8 with a mixed load: plain measurements, ones
// that error, ones that panic, and sweep jobs (healthy, erroring, and
// panicking).  Every job must run to completion, failures must stay
// isolated to their own job, sweeps must accumulate exact deterministic
// counts, and the batch ledger must balance with one row per sweep.  Run
// under -race this is also the scheduler's data-race stress.
func TestBatchKeepGoingStress(t *testing.T) {
	const nMeasure = 40
	b := NewBatch(Options{Parallelism: 8})

	errBoom := errors.New("synthetic failure")
	var measures []*Job
	wantErrs := 0
	for i := 0; i < nMeasure; i++ {
		fail := error(nil)
		panics := false
		switch i % 10 {
		case 3:
			fail = errBoom
			wantErrs++
		case 7:
			panics = true
			wantErrs++
		}
		j, err := b.Submit(BatchJob{
			Kind:    "measure",
			Program: stressProgram(fmt.Sprintf("m%02d", i), fail, panics),
		})
		if err != nil {
			t.Fatal(err)
		}
		measures = append(measures, j)
	}

	// Two healthy sweeps over identical geometry (their points must agree
	// bit for bit), one erroring, one panicking.
	good1, err := b.Submit(BatchJob{Kind: "sweep", Program: stressProgram("s-good-a", nil, false), Sweep: stressSweep()})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := b.Submit(BatchJob{Kind: "sweep", Program: stressProgram("s-good-b", nil, false), Sweep: stressSweep()})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := b.Submit(BatchJob{Kind: "sweep", Program: stressProgram("s-bad", errBoom, false), Sweep: stressSweep()})
	if err != nil {
		t.Fatal(err)
	}
	panicky, err := b.Submit(BatchJob{Kind: "sweep", Program: stressProgram("s-panic", nil, true), Sweep: stressSweep()})
	if err != nil {
		t.Fatal(err)
	}
	const nSweeps = 4

	// Keep-going: individual failures never fail the batch.
	if err := b.Run(); err != nil {
		t.Fatalf("keep-going batch returned %v", err)
	}

	// Isolation: every measurement ran; the planted failures surface on
	// their own jobs and nowhere else.
	for i, j := range measures {
		if !j.Ran() {
			t.Fatalf("measure %d never ran in keep-going mode", i)
		}
		switch i % 10 {
		case 3:
			if !errors.Is(j.Err(), errBoom) {
				t.Errorf("measure %d error = %v, want the planted failure", i, j.Err())
			}
		case 7:
			if j.Err() == nil || !strings.Contains(j.Err().Error(), "panicked") {
				t.Errorf("measure %d error = %v, want a recovered panic", i, j.Err())
			}
		default:
			if j.Err() != nil {
				t.Errorf("healthy measure %d failed: %v", i, j.Err())
			}
			if j.Duration() <= 0 {
				t.Errorf("healthy measure %d has no duration", i)
			}
		}
	}

	// Sweeps: exact instruction counts per point, identical points across
	// the two healthy sweeps, failures confined.
	for _, g := range []*Job{good1, good2} {
		if !g.Ran() || g.Err() != nil {
			t.Fatalf("healthy sweep: ran=%v err=%v", g.Ran(), g.Err())
		}
		pts := g.Sweep().Points()
		if len(pts) != 4 {
			t.Fatalf("sweep has %d points, want 4", len(pts))
		}
		for _, pt := range pts {
			if pt.Instructions != stressEmits {
				t.Errorf("point %s counted %d instructions, want %d", pt.Label(), pt.Instructions, stressEmits)
			}
		}
	}
	for i, pt := range good1.Sweep().Points() {
		if other := good2.Sweep().Points()[i]; pt != other {
			t.Errorf("identical sweeps diverged at point %d: %+v vs %+v", i, pt, other)
		}
	}
	if !errors.Is(bad.Err(), errBoom) {
		t.Errorf("erroring sweep error = %v, want the planted failure", bad.Err())
	}
	if panicky.Err() == nil || !strings.Contains(panicky.Err().Error(), "panicked") {
		t.Errorf("panicking sweep error = %v, want a recovered panic", panicky.Err())
	}

	// The ledger balances, with each sweep one unit on the books.
	s := b.Sched()
	if s == nil {
		t.Fatal("no sched stats after Run")
	}
	if s.ClaimPolicy != labstats.PolicyLJF {
		t.Errorf("claim policy = %q, want %q", s.ClaimPolicy, labstats.PolicyLJF)
	}
	wantUnits := nMeasure + nSweeps
	if s.Jobs.Enqueued != wantUnits {
		t.Errorf("ledger enqueued %d units, want %d (one per sweep)", s.Jobs.Enqueued, wantUnits)
	}
	if s.Jobs.Finished != wantUnits || s.Jobs.Abandoned != 0 || s.Jobs.Unclaimed != 0 {
		t.Errorf("keep-going must finish every unit: %+v", s.Jobs)
	}
	// Errors: the planted measure failures plus the two broken sweeps.
	if wantLedgerErrs := wantErrs + 2; s.Jobs.Errors != wantLedgerErrs {
		t.Errorf("ledger errors = %d, want %d", s.Jobs.Errors, wantLedgerErrs)
	}
	sweeps := 0
	for _, jr := range s.Ledger {
		if jr.Kind == "sweep" {
			sweeps++
		}
		if jr.EstUS <= 0 || jr.EstSource == "" {
			t.Errorf("unit %d (%s %s) has no cost estimate", jr.Index, jr.Kind, jr.Program)
		}
	}
	if sweeps != nSweeps {
		t.Errorf("ledger shows %d sweep rows, want %d", sweeps, nSweeps)
	}
	if s.WorkersEffective != 8 {
		t.Errorf("workers effective = %d, want 8", s.WorkersEffective)
	}
	claimed := 0
	for _, w := range s.Workers {
		if w.Jobs > 0 {
			claimed++
		}
	}
	if claimed < 2 {
		// On a single hardware thread one goroutine can legitimately
		// drain the whole queue before another is ever scheduled, so the
		// overlap assertion only means something with real parallelism.
		if runtime.GOMAXPROCS(0) < 2 {
			t.Skipf("only %d workers claimed jobs on a GOMAXPROCS=1 machine; overlap needs >= 2 CPUs", claimed)
		}
		t.Errorf("only %d workers claimed jobs; the stress needs real overlap", claimed)
	}
}
