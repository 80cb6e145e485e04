// Package telemetry instruments the laboratory itself: structured metrics
// (counters, gauges, log-bucketed histograms), span-based tracing of the
// experiment pipeline exported as Chrome trace-event JSON, and versioned
// machine-readable run manifests.
//
// The paper is a measurement study; this package is the measurement of the
// measurers.  Everything is designed around a near-zero-cost disabled path:
// a nil *Registry hands out nil instruments whose methods no-op, so code
// can be instrumented unconditionally and pay nothing when telemetry is
// off.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.  A nil Counter is
// valid and all its methods no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level.  A nil Gauge is valid and all its
// methods no-op.  The value is stored as a float64 bit pattern.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by delta (negative deltas decrease it),
// atomically with respect to concurrent Add calls.  Level-style gauges — a
// server's in-flight request count, an admission queue's depth — are
// incremented and decremented from many goroutines.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current level (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 buckets: bucket i holds observations v
// with bits.Len64(v) == i, i.e. bucket 0 is v==0, bucket i covers
// [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a streaming histogram with logarithmic (power-of-two)
// buckets, suitable for long-tailed quantities such as instruction counts
// or span durations.  A nil Histogram is valid and all its methods no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.count.Load())
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// upper edge of the log bucket containing it.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}

// Buckets returns the non-empty buckets as (upper-bound, count) pairs in
// ascending order.
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	var out []BucketCount
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			hi := uint64(0)
			if i > 0 {
				hi = 1<<uint(i) - 1
			}
			out = append(out, BucketCount{Le: hi, Count: n})
		}
	}
	return out
}

// BucketCount is one histogram bucket: Count observations <= Le (and above
// the previous bucket's Le).
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Registry names and owns instruments.  A nil *Registry is the disabled
// state: every lookup returns a nil instrument, whose methods no-op.
// Lookups are concurrency-safe; instrument updates are atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.  Returns
// nil (a valid no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.  Returns nil (a
// valid no-op gauge) when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a valid no-op histogram) when r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Metric is one exported instrument value.  Exactly one of the value
// fields is meaningful, selected by Type.
type Metric struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"` // "counter", "gauge", "histogram"
	Value float64 `json:"value,omitempty"`

	Count   uint64        `json:"count,omitempty"`
	Sum     uint64        `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot exports every instrument, sorted by (type, name).  A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Type: "histogram", Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// String renders a metric as "name type value" for debugging.
func (m Metric) String() string {
	if m.Type == "histogram" {
		return fmt.Sprintf("%s histogram count=%d sum=%d", m.Name, m.Count, m.Sum)
	}
	return fmt.Sprintf("%s %s %g", m.Name, m.Type, m.Value)
}
