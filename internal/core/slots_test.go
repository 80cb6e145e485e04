package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
)

// streamProgram emits some thirty blocks of rows through the probe under
// command attribution, then returns fail.
func streamProgram(sys System, fail error) Program {
	return Program{
		System: sys, Name: "stream",
		Run: func(ctx *Ctx) error {
			r := ctx.Image.Routine("stream.loop", 256)
			op := ctx.Probe.OpName("work")
			for i := 0; i < 20000; i++ {
				ctx.Probe.BeginCommand(op)
				ctx.Probe.Exec(r, 12)
				ctx.Probe.Load(uint32(0x100000 + 64*(i%512)))
				ctx.Probe.BeginExecute()
				ctx.Probe.Exec(r, 24)
				ctx.Probe.Store(uint32(0x200000 + 8*(i%4096)))
				ctx.Probe.EndCommand()
			}
			return fail
		},
	}
}

// oneIdleSlot returns a pool one idle worker lent its slot to.
func oneIdleSlot() *trace.Slots {
	s := new(trace.Slots)
	s.Lend()
	return s
}

// onDeliveryGoroutine reports whether the caller runs on a batcher's
// delivery goroutine.
func onDeliveryGoroutine() bool {
	buf := make([]byte, 8192)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*delivery).run")
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLentSlotRunMatchesInline: a run whose simulators take its blocks on
// a lent slot measures exactly what an inline run measures, gives the
// slot back and leaves no goroutine behind.
func TestLentSlotRunMatchesInline(t *testing.T) {
	cfg := alphasim.DefaultConfig()
	inlineSweep, lentSweep := alphasim.DefaultICacheSweep(), alphasim.DefaultICacheSweep()
	inline, err := MeasureWithPipelineAndSweep(streamProgram(SysPerl, nil), cfg, inlineSweep)
	if err != nil {
		t.Fatal(err)
	}
	slots, reg := oneIdleSlot(), telemetry.NewRegistry()
	base := runtime.NumGoroutine()
	lent, err := MeasureWithPipelineAndSweep(streamProgram(SysPerl, nil), cfg, lentSweep, WithSlots(slots), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trace.batch.handoffs").Value(); got == 0 {
		t.Fatal("no block was handed to a delivery goroutine")
	}
	if inline.Batch.Handoffs != 0 {
		t.Errorf("the run without a pool handed off %d blocks", inline.Batch.Handoffs)
	}
	lentBatch := lent.Batch
	lentBatch.Handoffs = 0
	if lentBatch != inline.Batch {
		t.Errorf("batch accounting %+v, inline %+v", lent.Batch, inline.Batch)
	}
	if !reflect.DeepEqual(lent.Pipe, inline.Pipe) {
		t.Errorf("pipeline stats differ:\nlent   %+v\ninline %+v", lent.Pipe, inline.Pipe)
	}
	if !reflect.DeepEqual(lentSweep.Points(), inlineSweep.Points()) {
		t.Errorf("sweep points differ:\nlent   %+v\ninline %+v", lentSweep.Points(), inlineSweep.Points())
	}
	if lent.Counter != inline.Counter || !reflect.DeepEqual(lent.Stats, inline.Stats) {
		t.Error("tallies differ between the lent-slot and the inline run")
	}
	if got := slots.Idle(); got != 1 {
		t.Errorf("idle slots after the run = %d, want 1", got)
	}
	waitGoroutines(t, base)
}

// asyncSink counts the blocks it takes on a delivery goroutine, and
// panics on the first such block when panicky is set.
type asyncSink struct {
	panicky bool
	async   int
}

func (s *asyncSink) EmitBlock(*trace.Block) {
	if onDeliveryGoroutine() {
		s.async++
		if s.panicky {
			panic("synthetic sink panic")
		}
	}
}

// TestGuestErrorStopsDelivery: a guest that fails after its blocks went
// to a delivery goroutine leaves no goroutine behind and its slot back in
// the pool.
func TestGuestErrorStopsDelivery(t *testing.T) {
	slots, sink := oneIdleSlot(), &asyncSink{}
	base := runtime.NumGoroutine()
	_, err := run(streamProgram(SysPerl, errBoom), measureConfig{slots: slots}, sink)
	if err == nil {
		t.Fatal("the failing guest's run returned no error")
	}
	if sink.async == 0 {
		t.Fatal("no block reached the sink on a delivery goroutine")
	}
	if got := slots.Idle(); got != 1 {
		t.Errorf("idle slots after the failed run = %d, want 1", got)
	}
	waitGoroutines(t, base)
}

// TestSinkPanicOnDeliveryGoroutine: a sink panic on the delivery
// goroutine reaches the measuring goroutine, the run's caller, as the
// same panic; the goroutine ends and the slot goes back.
func TestSinkPanicOnDeliveryGoroutine(t *testing.T) {
	slots := oneIdleSlot()
	base := runtime.NumGoroutine()
	got := func() (rec any) {
		defer func() { rec = recover() }()
		run(streamProgram(SysPerl, nil), measureConfig{slots: slots}, &asyncSink{panicky: true})
		return nil
	}()
	if got != "synthetic sink panic" {
		t.Fatalf("recovered %v, want the sink's panic", got)
	}
	if idle := slots.Idle(); idle != 1 {
		t.Errorf("idle slots after the panic = %d, want 1", idle)
	}
	waitGoroutines(t, base)
}

// TestMissJoinDeliversInline: a profiled pipeline run, whose miss join
// reads the probe's attribution state, never hands a block off, even with
// a slot to borrow.
func TestMissJoinDeliversInline(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := MeasureWithPipeline(streamProgram(SysPerl, nil), alphasim.DefaultConfig(), WithProfiling(), WithSlots(oneIdleSlot()), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.FlushAttr == 0 {
		t.Fatal("the profiled pipeline run did not flush per attribution change")
	}
	if got := reg.Counter("trace.batch.handoffs").Value(); got != 0 {
		t.Errorf("the miss-joining run handed %d blocks to a delivery goroutine", got)
	}
}

// TestSlotsGoToTheStreamingProducer: compiled C streams through the
// workload's own producer, which finds the pool on the Ctx; every other
// system streams through the probe, and the Ctx carries none.
func TestSlotsGoToTheStreamingProducer(t *testing.T) {
	slots := oneIdleSlot()
	for _, sys := range []System{SysC, SysPerl} {
		var got *trace.Slots
		p := Program{System: sys, Name: "slots", Run: func(ctx *Ctx) error { got = ctx.Slots; return nil }}
		if _, err := MeasureWithPipeline(p, alphasim.DefaultConfig(), WithSlots(slots)); err != nil {
			t.Fatal(err)
		}
		if want := map[System]*trace.Slots{SysC: slots}[sys]; got != want {
			t.Errorf("%s: Ctx.Slots = %p, want %p", sys, got, want)
		}
	}
}
