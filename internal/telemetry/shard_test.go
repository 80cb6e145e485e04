package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardMerge pins the worker-shard contract the parallel scheduler
// relies on: counters add, histograms add bucket-wise, gauges take the last
// merged shard's value, and pre-existing instruments in the target survive.
func TestShardMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs").Add(5)
	r.Histogram("events").Observe(100)

	s1 := r.Shard()
	s2 := r.Shard()
	s1.Counter("jobs").Add(2)
	s1.Counter("only_s1").Inc()
	s1.Histogram("events").Observe(7)
	s1.Gauge("last").Set(1)
	s2.Counter("jobs").Add(3)
	s2.Histogram("events").Observe(9)
	s2.Gauge("last").Set(2)

	r.Merge(s1)
	r.Merge(s2)

	if got := r.Counter("jobs").Value(); got != 10 {
		t.Errorf("jobs = %d, want 10", got)
	}
	if got := r.Counter("only_s1").Value(); got != 1 {
		t.Errorf("only_s1 = %d, want 1", got)
	}
	h := r.Histogram("events")
	if h.Count() != 3 || h.Sum() != 116 {
		t.Errorf("events histogram count=%d sum=%d, want 3/116", h.Count(), h.Sum())
	}
	if got := r.Gauge("last").Value(); got != 2 {
		t.Errorf("gauge = %g, want the last-merged shard's value 2", got)
	}
}

// TestShardMergeNil keeps the disabled path disabled: a nil registry shards
// to nil, and merging nil in either direction no-ops.
func TestShardMergeNil(t *testing.T) {
	var disabled *Registry
	if s := disabled.Shard(); s != nil {
		t.Error("nil registry must shard to nil")
	}
	disabled.Merge(NewRegistry()) // must not panic
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Merge(nil)
	if got := r.Counter("c").Value(); got != 1 {
		t.Errorf("merging nil changed a counter: %d", got)
	}
}

// TestMergeIsAtomicUnderSnapshot pins that a shard lands in the registry
// whole: goroutines merge shards whose gauges all carry the shard's id
// while another goroutine snapshots, and every snapshot must show exactly
// one id across the gauges — one stream's observer.* gauges never mixed
// with another's.
func TestMergeIsAtomicUnderSnapshot(t *testing.T) {
	const gauges, mergers, merges = 12, 4, 300
	r := NewRegistry()
	shard := func(id int) *Registry {
		s := r.Shard()
		for g := 0; g < gauges; g++ {
			s.Gauge(fmt.Sprintf("observer.g%02d", g)).Set(float64(id))
		}
		return s
	}
	r.Merge(shard(0))

	var wg sync.WaitGroup
	for w := 1; w <= mergers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < merges; i++ {
				r.Merge(shard(w*merges + i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		ids := make(map[float64]bool)
		n := 0
		for _, m := range r.Snapshot() {
			if m.Type == "gauge" {
				ids[m.Value] = true
				n++
			}
		}
		if n != gauges || len(ids) != 1 {
			t.Fatalf("snapshot %d holds %d gauges with ids %v, want %d gauges of one id", snaps, n, ids, gauges)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
