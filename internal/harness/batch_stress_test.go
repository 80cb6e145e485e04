package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/labstats"
	"interplab/internal/telemetry"
)

// stressEmits is the synthetic workload size: each program walks a 256-word
// routine 50×64 instructions, so every sweep point must count exactly this
// many instruction fetches.
const stressEmits = 50 * 64

// stressProgram builds a cheap deterministic workload that emits real
// instruction events, so sweeps accumulate counts.  It also blocks for a
// millisecond, so other workers claim jobs while it runs: the walk alone
// takes about 10 µs once a process is warm, and one worker could drain
// the whole batch before a second one started.
func stressProgram(name string) core.Program {
	return core.Program{
		System: "X", Name: name,
		Run: func(ctx *core.Ctx) error {
			time.Sleep(time.Millisecond)
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

// TestBatchStress hammers the exported Batch at parallelism 8 with a mix
// of plain measurements and sweep jobs.  Every job must run and succeed,
// sweeps must accumulate exact deterministic counts, the manifest must
// record one measurement per job in submission order, and the batch
// ledger must balance with one row per sweep.  Run under -race this is
// also the scheduler's data-race stress.
func TestBatchStress(t *testing.T) {
	const nMeasure, nSweeps = 40, 4
	rec := telemetry.NewManifest(1).StartRun("stress")
	b := NewBatch(Options{Parallelism: 8, rec: rec})

	var jobs []*Job
	for i := 0; i < nMeasure; i++ {
		j, err := b.Submit(BatchJob{Kind: "measure", Program: stressProgram(fmt.Sprintf("m%02d", i))})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Sweeps over identical geometry: their points must agree bit for bit.
	var sweeps []*alphasim.ICacheSweep
	for i := 0; i < nSweeps; i++ {
		sw := stressSweep()
		j, err := b.Submit(BatchJob{Kind: "sweep", Program: stressProgram(fmt.Sprintf("s%d", i)), Sweep: sw})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		sweeps = append(sweeps, sw)
	}

	if err := b.Run(); err != nil {
		t.Fatalf("healthy batch returned %v", err)
	}
	for i, j := range jobs {
		if j.Err() != nil {
			t.Errorf("job %d failed: %v", i, j.Err())
		}
	}

	// Sweeps: exact instruction counts per point, identical points across
	// identical sweeps.
	for _, sw := range sweeps {
		pts := sw.Points()
		if len(pts) != 4 {
			t.Fatalf("sweep has %d points, want 4", len(pts))
		}
		for i, pt := range pts {
			if pt.Instructions != stressEmits {
				t.Errorf("point %s counted %d instructions, want %d", pt.Label(), pt.Instructions, stressEmits)
			}
			if other := sweeps[0].Points()[i]; pt != other {
				t.Errorf("identical sweeps diverged at point %d: %+v vs %+v", i, pt, other)
			}
		}
	}

	// The manifest records every job once, in submission order.
	if len(rec.Measurements) != nMeasure+nSweeps {
		t.Fatalf("manifest recorded %d measurements, want %d", len(rec.Measurements), nMeasure+nSweeps)
	}
	for i, m := range rec.Measurements {
		want := fmt.Sprintf("X/m%02d", i)
		if i >= nMeasure {
			want = fmt.Sprintf("X/s%d", i-nMeasure)
		}
		if m.Program != want || m.Events != stressEmits {
			t.Errorf("measurement %d is %s with %d events, want %s with %d", i, m.Program, m.Events, want, stressEmits)
		}
	}

	// The ledger balances, with each sweep one unit on the books.
	if len(rec.Sched) != 1 {
		t.Fatalf("got %d sched blocks, want 1", len(rec.Sched))
	}
	s := rec.Sched[0]
	if s.ClaimPolicy != labstats.PolicyLJF {
		t.Errorf("claim policy = %q, want %q", s.ClaimPolicy, labstats.PolicyLJF)
	}
	wantUnits := nMeasure + nSweeps
	if s.Jobs.Enqueued != wantUnits {
		t.Errorf("ledger enqueued %d units, want %d (one per sweep)", s.Jobs.Enqueued, wantUnits)
	}
	if s.Jobs.Finished != wantUnits || s.Jobs.Errors != 0 || s.Jobs.Abandoned != 0 || s.Jobs.Unclaimed != 0 {
		t.Errorf("a healthy batch must finish every unit cleanly: %+v", s.Jobs)
	}
	sweepRows := 0
	for _, jr := range s.Ledger {
		if jr.Kind == "sweep" {
			sweepRows++
		}
		if jr.EstUS <= 0 || jr.EstSource == "" {
			t.Errorf("unit %d (%s %s) has no cost estimate", jr.Index, jr.Kind, jr.Program)
		}
	}
	if sweepRows != nSweeps {
		t.Errorf("ledger shows %d sweep rows, want %d", sweepRows, nSweeps)
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
