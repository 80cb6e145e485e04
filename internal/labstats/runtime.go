package labstats

import (
	"runtime"
	"runtime/metrics"
)

// mutexWaitMetric is the runtime's cumulative sync.Mutex/RWMutex wait
// clock (always on since Go 1.20) — the contention-wait estimate's source.
const mutexWaitMetric = "/sync/mutex/wait/total:seconds"

// RuntimeSnapshot is one reading of the Go runtime around a batch: the
// allocator's and collector's cumulative books plus the live goroutine
// count.  Two snapshots bracket a batch; DeltaTo attributes the difference
// to it.
type RuntimeSnapshot struct {
	AtUS            float64 `json:"at_us"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalNS  uint64  `json:"gc_pause_total_ns"`
	Goroutines      int     `json:"goroutines"`
	MutexWaitNS     uint64  `json:"mutex_wait_ns"`
}

// ReadRuntimeSnapshot captures the current runtime state.
func ReadRuntimeSnapshot() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSnapshot{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		GCPauseTotalNS:  ms.PauseTotalNs,
		Goroutines:      runtime.NumGoroutine(),
	}
	sample := []metrics.Sample{{Name: mutexWaitMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.MutexWaitNS = uint64(sample[0].Value.Float64() * 1e9)
	}
	return s
}

// RuntimeDelta is what the runtime did across a batch: allocation and GC
// churn, mutex wait growth, and the goroutine count at each edge.
type RuntimeDelta struct {
	AllocBytes       uint64  `json:"alloc_bytes"`
	AllocBytesPerJob float64 `json:"alloc_bytes_per_job,omitempty"`
	Mallocs          uint64  `json:"mallocs"`
	GCCycles         uint32  `json:"gc_cycles"`
	GCPauseNS        uint64  `json:"gc_pause_ns"`
	MutexWaitNS      uint64  `json:"mutex_wait_ns"`
	GoroutinesBefore int     `json:"goroutines_before"`
	GoroutinesAfter  int     `json:"goroutines_after"`
}

// DeltaTo returns the runtime activity between s and after.
func (s RuntimeSnapshot) DeltaTo(after RuntimeSnapshot) RuntimeDelta {
	return RuntimeDelta{
		AllocBytes:       after.TotalAllocBytes - s.TotalAllocBytes,
		Mallocs:          after.Mallocs - s.Mallocs,
		GCCycles:         after.NumGC - s.NumGC,
		GCPauseNS:        after.GCPauseTotalNS - s.GCPauseTotalNS,
		MutexWaitNS:      after.MutexWaitNS - s.MutexWaitNS,
		GoroutinesBefore: s.Goroutines,
		GoroutinesAfter:  after.Goroutines,
	}
}
