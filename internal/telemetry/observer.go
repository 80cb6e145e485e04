package telemetry

import (
	"time"

	"interplab/internal/trace"
)

// Observer samples a measured run's stream tally: each sample snapshots the
// cumulative instruction mix, the loads/stores ratio, and the event
// throughput since the previous sample into the registry and the sample
// log.  It never sees the events themselves — the producers count them as
// they emit them (trace.Tally) — so observing a run cannot perturb its
// stream, and a run observed without a simulator still builds no event
// blocks.  core wires it to the producers' sampling hooks
// (trace.Tally.SampleEvery), which fire as the total crosses each interval.
type Observer struct {
	reg *Registry
	now func() time.Time // test seam

	lastSample time.Time
	lastTotal  uint64
	samples    []Sample
}

// Sample is one periodic snapshot of the observed stream.
type Sample struct {
	// Events is the cumulative event count at snapshot time.
	Events uint64 `json:"events"`
	// Mix is the cumulative share of each instruction kind, in trace.Kind
	// order, summing to ~1.
	Mix [trace.NumKinds]float64 `json:"mix"`
	// LoadsPerStore is the cumulative loads/stores ratio (0 when no
	// stores have been seen).
	LoadsPerStore float64 `json:"loads_per_store"`
	// EventsPerSec is the throughput over the window since the previous
	// snapshot.
	EventsPerSec float64 `json:"events_per_sec"`
}

// NewObserver returns an observer feeding reg; the throughput of the first
// sample is measured from now.  A nil registry keeps the samples in the
// log only.
func NewObserver(reg *Registry) *Observer {
	o := &Observer{reg: reg, now: time.Now}
	o.lastSample = o.now()
	return o
}

// Sample snapshots the cumulative tally c.
func (o *Observer) Sample(c trace.Counter) {
	now := o.now()
	s := Sample{Events: c.Total}
	if c.Total > 0 {
		for k, n := range c.ByKind {
			s.Mix[k] = float64(n) / float64(c.Total)
		}
	}
	if stores := c.ByKind[trace.Store]; stores > 0 {
		s.LoadsPerStore = float64(c.ByKind[trace.Load]) / float64(stores)
	}
	if dt := now.Sub(o.lastSample).Seconds(); dt > 0 {
		s.EventsPerSec = float64(c.Total-o.lastTotal) / dt
	}
	o.lastSample = now
	o.lastTotal = c.Total
	o.samples = append(o.samples, s)

	o.reg.Counter("observer.samples").Inc()
	o.reg.Gauge("observer.events").Set(float64(c.Total))
	o.reg.Gauge("observer.loads_per_store").Set(s.LoadsPerStore)
	o.reg.Gauge("observer.events_per_sec").Set(s.EventsPerSec)
	for k := 0; k < trace.NumKinds; k++ {
		o.reg.Gauge("observer.mix." + trace.Kind(k).String()).Set(s.Mix[k])
	}
}

// Flush takes the final sample of the run's tally c if events arrived since
// the last sample, so short streams still produce at least one.
func (o *Observer) Flush(c trace.Counter) {
	if c.Total > o.lastTotal || (c.Total > 0 && len(o.samples) == 0) {
		o.Sample(c)
	}
}

// Samples returns the snapshots taken so far.
func (o *Observer) Samples() []Sample { return o.samples }
