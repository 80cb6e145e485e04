package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("runs") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("temp")
	g.Add(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
}

// TestGaugeAdd covers the level-tracking use (in-flight requests, queue
// depth): concurrent +1/-1 deltas must balance back to the starting level.
func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Add(2)
	g.Add(-0.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge after +2 -0.5 = %g, want 1.5", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge after balanced concurrent deltas = %g, want 1.5", got)
	}

	var nilG *Gauge
	nilG.Add(3) // must not panic
}

// TestNilRegistryNoOps pins the disabled path: a nil registry hands out
// nil instruments whose every method is a safe no-op.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c != nil || c.Value() != 0 {
		t.Error("nil registry must produce inert counters")
	}
	g := r.Gauge("y")
	g.Add(1)
	if g != nil || g.Value() != 0 {
		t.Error("nil registry must produce inert gauges")
	}
	h := r.Histogram("z")
	h.Observe(9)
	if h != nil || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil registry must produce inert histograms")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
}

func TestHistogramLogBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+1+2+3+1000+1<<20 {
		t.Errorf("sum = %d", h.Sum())
	}
	bks := h.Buckets()
	if len(bks) == 0 {
		t.Fatal("no buckets")
	}
	// 0 lands in the zero bucket; 2 and 3 share bucket le=3; 1000 in
	// le=1023; 1<<20 in le=2^21-1.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 1023: 1, 1<<21 - 1: 1}
	for _, b := range bks {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	// Median of {0,1,2,3,1000,2^20} falls in the le=3 bucket.
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1); q != 1<<21-1 {
		t.Errorf("p100 = %d, want %d", uint64(1<<21-1), q)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Inc()
	r.Gauge("rate").Add(7)
	r.Histogram("sizes").Observe(16)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(snap))
	}
	// counters sort before gauges before histograms; names sort within.
	wantOrder := []string{"a.count", "b.count", "rate", "sizes"}
	for i, m := range snap {
		if m.Name != wantOrder[i] {
			t.Errorf("snapshot[%d] = %s, want %s", i, m.Name, wantOrder[i])
		}
	}
	if snap[0].Type != "counter" || snap[2].Type != "gauge" || snap[3].Type != "histogram" {
		t.Errorf("types wrong: %+v", snap)
	}
	if snap[3].Count != 1 || snap[3].Sum != 16 {
		t.Errorf("histogram export wrong: %+v", snap[3])
	}
}

// TestRegistryConcurrency exercises concurrent lookup+update under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(uint64(j))
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %g, want 8000", got)
	}
}
