package harness

import (
	"encoding/json"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/profile"
	"interplab/internal/telemetry"
	"interplab/internal/workloads"
)

// runOnePipeline runs a batch of one pipeline job of p at the given
// parallelism and returns the batch, the job's manifest record with its
// wall time zeroed, and the blocks handed to delivery goroutines.
func runOnePipeline(t *testing.T, p core.Program, parallelism int, profiled bool) (*batch, []byte, uint64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opt := Options{Scale: 0.05, Parallelism: parallelism, Telemetry: reg}
	if profiled {
		opt.Profile = profile.NewSet()
	}
	b := opt.newBatch()
	j := b.measurePipeline(p, alphasim.DefaultConfig())
	if err := b.run(); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(NewMeasurement(j.kind, j.res, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	return b, rec, reg.Counter("trace.batch.handoffs").Value()
}

// TestBatchLendsUnfilledSlots: a batch of one job at parallelism 2 lends
// the slot of the worker it leaves unfilled, so the job's simulators run
// beside its guest, on both streaming producers (the probe, and compiled
// C's mipsi.Native); the record equals the serial run's, and after the
// drain the lent slot is back in the pool.  The serial path lends
// nothing.
func TestBatchLendsUnfilledSlots(t *testing.T) {
	for _, p := range []core.Program{workloads.DESPerl(2), workloads.DESNative(16)} {
		serial, want, handoffs := runOnePipeline(t, p, 1, false)
		if serial.slots != nil || handoffs != 0 {
			t.Errorf("%s: the serial batch has a pool (%v) and handed off %d blocks", p.ID(), serial.slots, handoffs)
		}
		par, got, handoffs := runOnePipeline(t, p, 2, false)
		if handoffs == 0 {
			t.Errorf("%s: no block was handed to a delivery goroutine on the lent slot", p.ID())
		}
		if string(got) != string(want) {
			t.Errorf("%s: record at parallelism 2 differs from the serial one:\n%s\n%s", p.ID(), got, want)
		}
		if idle := par.slots.Idle(); idle != 1 {
			t.Errorf("%s: %d idle slots after the batch drained, want the one lent", p.ID(), idle)
		}
	}
}

// TestProfiledBatchDeliversInline: a profiled pipeline job joins misses
// to the probe's attribution state, so it never takes a lent slot.
func TestProfiledBatchDeliversInline(t *testing.T) {
	if _, _, handoffs := runOnePipeline(t, workloads.DESPerl(2), 2, true); handoffs != 0 {
		t.Errorf("the profiled pipeline job handed %d blocks to a delivery goroutine", handoffs)
	}
}
