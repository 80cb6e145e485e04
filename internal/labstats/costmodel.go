package labstats

import (
	"fmt"
	"sort"
	"sync"
)

// kindWeight is the static relative cost of a job kind, used before any
// history exists for a job shape.  The absolute numbers don't matter —
// only the ordering they induce — but they track reality at the default
// scale: a pipeline run simulates caches and a TLB on top of the
// interpreter; a sweep's one-pass stack simulation of its 12 cache
// geometries costs about two thirds of that (per event on des, 2-vCPU
// Xeon: guest and core 15.7 ns, plus the sweep sink's 4.4 ns against the
// pipeline sink's 14.9 ns).
func kindWeight(kind string) float64 {
	switch kind {
	case "pipeline":
		return 3
	case "sweep":
		return 2
	}
	return 1 // "measure" and anything unknown
}

// CostModel estimates job durations from observed history.  Estimates are
// keyed by the job's shape — kind, program, variant, scale — and refined
// with an exponentially weighted moving average as batches drain, so the
// second run of an experiment orders its claims by what the first run
// actually measured.  The zero value is unusable; use NewCostModel.  All
// methods are safe for concurrent use.
type CostModel struct {
	mu sync.Mutex
	// ewma maps "kind|program|variant|scale" to the smoothed observed
	// duration.
	ewma map[string]float64
	// meanUS is the smoothed duration across all observations, used to
	// give static estimates a realistic absolute magnitude.
	meanUS float64
	n      int
}

// costModelMaxEntries bounds the per-process model; at the default lab
// shapes (~10 kinds × ~20 programs × a few scales) it never fills, and a
// pathological caller churning scales can't grow it without bound.
const costModelMaxEntries = 4096

// ewmaAlpha weights new observations.  High enough that a warmed cache
// (durations dropping 100x) re-converges in a few batches, low enough
// that one noisy run doesn't invert the claim order.
const ewmaAlpha = 0.4

// NewCostModel returns an empty model.
func NewCostModel() *CostModel {
	return &CostModel{ewma: make(map[string]float64)}
}

// globalCostModel is the process-wide model shared by every batch, so
// later batches in one process (the experiments of one run, bench arms)
// claim in an order informed by earlier ones.
var globalCostModel = NewCostModel()

// GlobalCostModel returns the process-wide shared model.
func GlobalCostModel() *CostModel { return globalCostModel }

// costKey names a job shape.  The variant is part of it: an interpreter's
// optimization tiers and ablation arms run one program at different
// costs.
func costKey(kind, program, variant string, scale float64) string {
	return fmt.Sprintf("%s|%s|%s|%g", kind, program, variant, scale)
}

// Observe feeds one finished job's measured duration back into the model.
func (m *CostModel) Observe(kind, program, variant string, scale, durUS float64) {
	if m == nil || durUS <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := costKey(kind, program, variant, scale)
	if prev, ok := m.ewma[key]; ok {
		m.ewma[key] = prev + ewmaAlpha*(durUS-prev)
	} else if len(m.ewma) < costModelMaxEntries {
		m.ewma[key] = durUS
	}
	// Normalize the global mean to weight-1 units so it scales static
	// estimates for kinds we haven't seen.
	unit := durUS / kindWeight(kind)
	if m.n == 0 {
		m.meanUS = unit
	} else {
		m.meanUS += ewmaAlpha * (unit - m.meanUS)
	}
	m.n++
}

// Estimate returns the model's cost estimate for a job and the estimate's
// provenance: EstPrior when history for this exact (kind, program,
// variant, scale) exists, EstStatic otherwise.  Static estimates are the kind weight
// scaled by the scale factor and the observed global mean (or 1µs-units
// when the model is empty) — crude, but they order a cold batch sensibly:
// pipelines before sweeps before measures.
func (m *CostModel) Estimate(kind, program, variant string, scale float64) (us float64, source string) {
	w := kindWeight(kind)
	if scale > 0 {
		w *= scale
	}
	if m == nil {
		return w, EstStatic
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if est, ok := m.ewma[costKey(kind, program, variant, scale)]; ok {
		return est, EstPrior
	}
	if m.n > 0 {
		return w * m.meanUS, EstStatic
	}
	return w, EstStatic
}

// LJFOrder returns the longest-job-first claim permutation for the given
// estimates: indices sorted by descending cost, ties broken by submission
// order (stable).  With equal estimates throughout, the permutation is
// the identity — FIFO — which keeps stop-at-first-error prefix semantics
// intact for uniform batches.
func LJFOrder(ests []float64) []int {
	order := make([]int, len(ests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ests[order[a]] > ests[order[b]]
	})
	return order
}
