package telemetry

import (
	"testing"
	"time"

	"interplab/internal/atom"
	"interplab/internal/trace"
)

// stream synthesizes a deterministic mixed-kind event stream.
func stream(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		e := trace.Event{PC: uint32(4 * i)}
		switch i % 5 {
		case 0:
			e.Kind = trace.Int
		case 1:
			e.Kind = trace.Load
			e.Addr = uint32(i)
		case 2:
			e.Kind = trace.Load
			e.Addr = uint32(i * 2)
		case 3:
			e.Kind = trace.Store
			e.Addr = uint32(i)
		case 4:
			e.Kind = trace.Branch
			if i%10 == 4 {
				e.Flags = trace.FlagTaken
			}
		}
		evs[i] = e
	}
	return evs
}

// observe feeds evs into a tally one emitting call at a time, sampling the
// tally into obs every interval events.
func observe(obs *Observer, evs []trace.Event, interval uint64) *trace.Tally {
	var t trace.Tally
	t.SampleEvery(interval, func() { obs.Sample(t.Counter) })
	for _, e := range evs {
		t.Emit(e)
		t.Check()
	}
	return &t
}

// TestObserverPassThroughFidelity pins that observing a run cannot perturb
// its stream: a probe whose tally an observer samples emits the identical
// event sequence — same events, same order, same count — as an unobserved
// one, while the observer still takes its samples.
func TestObserverPassThroughFidelity(t *testing.T) {
	drive := func(obs *Observer) []trace.Event {
		var rec trace.Recorder
		img := atom.NewImage()
		loop := img.Routine("loop", 40)
		probe := atom.NewProbe(img, &rec)
		if obs != nil {
			probe.Tally().SampleEvery(64, func() { obs.Sample(probe.Tally().Counter) })
		}
		for i := 0; i < 50; i++ {
			probe.Exec(loop, 17)
			probe.Load(0x1000_0000 + uint32(i)*4)
			probe.Store(0x1000_0100 + uint32(i)*4)
		}
		probe.FlushEvents()
		return rec.Events
	}
	direct := drive(nil)
	obs := NewObserver(NewRegistry())
	observed := drive(obs)
	if len(observed) != len(direct) {
		t.Fatalf("observed %d events, direct %d", len(observed), len(direct))
	}
	for i := range direct {
		if observed[i] != direct[i] {
			t.Fatalf("event %d perturbed: %+v != %+v", i, observed[i], direct[i])
		}
	}
	if got, want := len(obs.Samples()), len(direct)/64; got != want {
		t.Errorf("observer took %d samples of %d events, want %d (one per 64)", got, len(direct), want)
	}
}

func TestObserverSampling(t *testing.T) {
	reg := NewRegistry()
	obs := NewObserver(reg)
	obs.now = fakeClock(time.Millisecond)
	obs.lastSample = obs.now()
	tally := observe(obs, stream(250), 100)
	if got := len(obs.Samples()); got != 2 {
		t.Fatalf("got %d samples, want 2 (every 100 of 250)", got)
	}
	if got := obs.Samples()[1].Events; got != 200 {
		t.Errorf("second sample at %d events, want 200 (one event per emitting call)", got)
	}
	obs.Flush(tally.Counter)
	samples := obs.Samples()
	if got := len(samples); got != 3 {
		t.Fatalf("after flush got %d samples, want 3", got)
	}
	last := samples[2]
	if last.Events != 250 {
		t.Errorf("final sample events = %d, want 250", last.Events)
	}
	// The 5-way kind rotation gives 2/5 loads, 1/5 stores.
	if last.LoadsPerStore < 1.9 || last.LoadsPerStore > 2.1 {
		t.Errorf("loads/store = %g, want ~2", last.LoadsPerStore)
	}
	wantMix := map[trace.Kind]float64{trace.Int: 0.2, trace.Load: 0.4, trace.Store: 0.2, trace.Branch: 0.2}
	for k, want := range wantMix {
		got := last.Mix[k]
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("mix[%v] = %g, want ~%g", k, got, want)
		}
	}
	if last.EventsPerSec <= 0 {
		t.Error("events/sec must be positive with an advancing clock")
	}
	// Registry gauges mirror the last snapshot.
	if got := reg.Gauge("observer.events").Value(); got != 250 {
		t.Errorf("observer.events gauge = %g, want 250", got)
	}
	if got := reg.Counter("observer.samples").Value(); got != 3 {
		t.Errorf("observer.samples counter = %d, want 3", got)
	}
	// A flush with nothing new since the last sample adds none.
	obs.Flush(tally.Counter)
	if got := len(obs.Samples()); got != 3 {
		t.Errorf("idle flush took a sample: %d samples", got)
	}
}

func TestObserverFlushIdempotentOnEmpty(t *testing.T) {
	obs := NewObserver(NewRegistry())
	obs.Flush(trace.Counter{})
	if len(obs.Samples()) != 0 {
		t.Error("flush of an empty stream must not synthesize samples")
	}
}
