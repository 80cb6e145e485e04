package labserver

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"interplab/internal/telemetry"
)

// pipelineRequest is a pipeline measurement long enough to fill many
// blocks.
var pipelineRequest = Request{Kind: "pipeline", Program: "Perl/des", Scale: 0.05}

// TestWaitingWorkerLendsItsSlot: while one worker measures, the other
// waits on the empty queue with its slot lent, and the measurement's
// simulators take it; once the request is answered, both slots are lent
// again and nothing is borrowed.
func TestWaitingWorkerLendsItsSlot(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, Config{Telemetry: reg, Parallelism: 2})
	defer drainNow(t, srv)
	waitFor(t, "both workers to lend their slots", func() bool { return srv.slots.Idle() == 2 })

	resp, body := postMeasure(t, ts.URL, pipelineRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := reg.Counter("trace.batch.handoffs").Value(); got == 0 {
		t.Error("the measurement handed no block to a delivery goroutine on the waiting worker's slot")
	}
	waitFor(t, "both slots to come back", func() bool { return srv.slots.Idle() == 2 })
}

// TestSinkPanicOnLentSlotIs500: a simulator that panics on the delivery
// goroutine fails its own call with a 500 naming the panic, without
// deadlocking the producer or crashing the process; the goroutine ends,
// the slot comes back, and the server keeps serving.
func TestSinkPanicOnLentSlotIs500(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, Config{Telemetry: reg, Parallelism: 2})
	defer drainNow(t, srv)
	waitFor(t, "both workers to lend their slots", func() bool { return srv.slots.Idle() == 2 })
	base := runtime.NumGoroutine()

	// An empty branch history table passes no Validate, and divides by
	// zero at the stream's first conditional branch, inside the
	// pipeline's EmitBlock: on the delivery goroutine, since the first
	// block goes there.
	rr := mustResolve(t, pipelineRequest)
	bad := *rr.cfg
	bad.BHTEntries = 0
	rr.cfg = &bad
	c, _, herr := srv.admit(rr.key.Hash(), rr)
	if herr != nil {
		t.Fatalf("admit: %v", herr)
	}
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatal("the call whose simulator panicked was never answered")
	}
	if c.status != http.StatusInternalServerError || !strings.Contains(string(c.body), "divide by zero") {
		t.Errorf("call finished %d, want a 500 naming the panic: %s", c.status, c.body)
	}
	if got := reg.Counter("server.panics").Value(); got != 1 {
		t.Errorf("server.panics = %d, want 1", got)
	}
	waitFor(t, "both slots to come back", func() bool { return srv.slots.Idle() == 2 })
	waitFor(t, "the delivery goroutine to end", func() bool { return runtime.NumGoroutine() <= base })

	resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200: %s", resp.StatusCode, body)
	}
}
