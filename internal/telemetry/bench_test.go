package telemetry

import (
	"testing"

	"interplab/internal/trace"
)

// Telemetry adds nothing to the emit path: the producers count their
// stream in a trace.Counter, and the registry is updated once per run.
// BenchmarkTelemetryBaseline prices that count on a block-sized stream;
// the others price the registry's instruments.

var benchEvents = stream(4096)

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetryHistogram prices a live histogram observation.
func BenchmarkTelemetryHistogram(b *testing.B) {
	h := NewRegistry().Histogram("hot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
