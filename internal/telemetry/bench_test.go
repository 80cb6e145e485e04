package telemetry

import (
	"testing"

	"interplab/internal/trace"
)

// The observer reads the producers' tallies instead of the event stream,
// so telemetry's cost on the emit path is the tally's sampling check.
// BenchmarkTelemetryBaseline counts a block-sized stream into a bare
// counter; BenchmarkTelemetryDisabled adds the once-per-call Check of a
// tally without a hook, which must be within noise of the baseline; and
// BenchmarkTelemetryEnabled prices the observer's sampling at the default
// interval.

var benchEvents = stream(4096)

// BenchmarkTelemetryBaseline is the uninstrumented count: events straight
// into a counter.
func BenchmarkTelemetryBaseline(b *testing.B) {
	var c trace.Counter
	b.SetBytes(int64(len(benchEvents)))
	for i := 0; i < b.N; i++ {
		for _, e := range benchEvents {
			c.Emit(e)
		}
	}
}

// BenchmarkTelemetryDisabled is the same count through a tally that no
// observer samples, checked once per event as the native producer does.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var t trace.Tally
	b.SetBytes(int64(len(benchEvents)))
	for i := 0; i < b.N; i++ {
		for _, e := range benchEvents {
			t.Emit(e)
			t.Check()
		}
	}
}

// BenchmarkTelemetryEnabled prices the sampling observer at the default
// interval.
func BenchmarkTelemetryEnabled(b *testing.B) {
	obs := NewObserver(NewRegistry())
	var t trace.Tally
	t.SampleEvery(65536, func() { obs.Sample(t.Counter) })
	b.SetBytes(int64(len(benchEvents)))
	for i := 0; i < b.N; i++ {
		for _, e := range benchEvents {
			t.Emit(e)
			t.Check()
		}
	}
}

// BenchmarkTelemetryNilCounter prices a nil counter increment on a hot
// path (the disabled metrics idiom).
func BenchmarkTelemetryNilCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("hot")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetryCounter prices a live atomic counter increment.
func BenchmarkTelemetryCounter(b *testing.B) {
	c := NewRegistry().Counter("hot")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetryHistogram prices a live histogram observation.
func BenchmarkTelemetryHistogram(b *testing.B) {
	h := NewRegistry().Histogram("hot")
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
