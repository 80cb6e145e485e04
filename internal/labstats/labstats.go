// Package labstats turns the lab's own scheduler and runtime into a
// measured subject.  The paper's method is attributing interpreter cost to
// its structural sources; this package applies the same treatment to the
// measurement harness: a per-batch job ledger (who ran what, when, on
// which worker) plus bracketing runtime snapshots (GC, allocation, mutex
// wait), folded into a speedup ledger that decomposes where parallel wall
// time went — serial fraction, per-worker utilization, imbalance, critical
// path, contention.
//
// The ledger is pure bookkeeping over timestamps from an injectable clock;
// every derived number in SchedStats is computed by Compute, a pure
// function of the job records, so the arithmetic is testable with
// synthetic timelines and no wall-clock dependence.
package labstats

import (
	"runtime"
	"sort"
	"time"
)

// Job outcomes, in ledger-balance terms: every enqueued job is either
// claimed or unclaimed, and every claimed job is either finished (ok or
// error) or abandoned (claimed after a failure stopped the batch, never
// executed).
const (
	OutcomeUnclaimed = "unclaimed" // enqueued, never taken by a worker
	OutcomeClaimed   = "claimed"   // taken by a worker, still in flight
	OutcomeOK        = "ok"        // executed successfully
	OutcomeError     = "error"     // executed, returned an error
	OutcomeAbandoned = "abandoned" // claimed after a failure; never executed
)

// Cost-estimate provenance: a static estimate comes from the per-kind
// weight table (no history for this job shape yet); a prior estimate comes
// from observed durations of earlier jobs with the same (kind, program,
// scale) ledger identity.
const (
	EstStatic = "static"
	EstPrior  = "prior"
)

// Claim policies: FIFO is the original atomic-cursor order (submission
// order); LJF is longest-job-first, claiming in descending cost-estimate
// order so critical-path jobs start early and the tail stays short.
const (
	PolicyFIFO = "fifo"
	PolicyLJF  = "ljf"
)

// JobRecord is one job's line in the ledger.  Timestamps are microseconds
// from the ledger's epoch (batch creation); DurUS is Finish minus Start.
type JobRecord struct {
	Index   int    `json:"index"`
	Kind    string `json:"kind"`
	Program string `json:"program"`
	// Worker is the claiming worker's id (0-based; the serial path is
	// worker 0); -1 until the job is claimed.
	Worker    int     `json:"worker"`
	EnqueueUS float64 `json:"enqueue_us"`
	ClaimUS   float64 `json:"claim_us"`
	StartUS   float64 `json:"start_us"`
	FinishUS  float64 `json:"finish_us"`
	DurUS     float64 `json:"dur_us"`
	Outcome   string  `json:"outcome"`
	// EstUS is the scheduler's pre-run cost estimate for the job — the
	// number longest-job-first claiming ordered it by — and EstSource says
	// where it came from (EstStatic or EstPrior).  Zero/empty when the
	// scheduler ran without estimates (FIFO claiming).
	EstUS     float64 `json:"est_us,omitempty"`
	EstSource string  `json:"est_source,omitempty"`
}

// executed reports whether the job actually ran (to success or error).
func (j JobRecord) executed() bool {
	return j.Outcome == OutcomeOK || j.Outcome == OutcomeError
}

// Ledger records one batch's scheduling history.  Usage contract: Enqueue
// every job (single goroutine), then Begin, then concurrent
// Claim/Start/Finish/Abandon on distinct job indices from the workers,
// then End and Stats.  A nil Ledger is the disabled state: every method
// no-ops and Stats returns nil.
type Ledger struct {
	now   func() time.Time
	epoch time.Time

	jobs []JobRecord

	workersRequested int
	workersEffective int
	beginUS, endUS   float64
	ended            bool
	claimPolicy      string

	snapBegin RuntimeSnapshot
	snapValid bool
}

// NewLedger starts an empty ledger whose epoch is now.
func NewLedger() *Ledger {
	l := &Ledger{now: time.Now}
	l.epoch = l.now()
	return l
}

// SetClock replaces the ledger's clock (test seam) and resets the epoch to
// the new clock's current time.  Call before any Enqueue.
func (l *Ledger) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.now = now
	l.epoch = now()
}

// stamp returns microseconds since the epoch.
func (l *Ledger) stamp() float64 {
	return float64(l.now().Sub(l.epoch)) / float64(time.Microsecond)
}

// Enqueue registers one job and returns its ledger index.
func (l *Ledger) Enqueue(kind, program string) int {
	if l == nil {
		return -1
	}
	i := len(l.jobs)
	l.jobs = append(l.jobs, JobRecord{
		Index:     i,
		Kind:      kind,
		Program:   program,
		Worker:    -1,
		EnqueueUS: l.stamp(),
		Outcome:   OutcomeUnclaimed,
	})
	return i
}

// SetEstimate records the scheduler's pre-run cost estimate for job i and
// its provenance (EstStatic or EstPrior).  Call between Enqueue and the
// job's Claim.
func (l *Ledger) SetEstimate(i int, estUS float64, source string) {
	if l == nil || i < 0 || i >= len(l.jobs) {
		return
	}
	l.jobs[i].EstUS = estUS
	l.jobs[i].EstSource = source
}

// SetPolicy records the claim policy the batch ran under (e.g. PolicyFIFO,
// PolicyLJF); Stats copies it into the speedup ledger.
func (l *Ledger) SetPolicy(policy string) {
	if l == nil {
		return
	}
	l.claimPolicy = policy
}

// Begin marks the start of scheduling: the requested worker count, the
// effective one (after capping at the job count), the wall-clock origin
// utilization is measured against, and the opening runtime snapshot.
func (l *Ledger) Begin(requested, effective int) {
	if l == nil {
		return
	}
	l.workersRequested = requested
	l.workersEffective = effective
	l.beginUS = l.stamp()
	l.snapBegin = ReadRuntimeSnapshot()
	l.snapBegin.AtUS = l.beginUS
	l.snapValid = true
}

// Claim records worker taking job i.
func (l *Ledger) Claim(i, worker int) {
	if l == nil || i < 0 || i >= len(l.jobs) {
		return
	}
	j := &l.jobs[i]
	j.Worker = worker
	j.ClaimUS = l.stamp()
	j.Outcome = OutcomeClaimed
}

// Start records job i beginning execution.
func (l *Ledger) Start(i int) {
	if l == nil || i < 0 || i >= len(l.jobs) {
		return
	}
	l.jobs[i].StartUS = l.stamp()
}

// Finish records job i completing, successfully or with an error.
func (l *Ledger) Finish(i int, failed bool) {
	if l == nil || i < 0 || i >= len(l.jobs) {
		return
	}
	j := &l.jobs[i]
	j.FinishUS = l.stamp()
	j.DurUS = j.FinishUS - j.StartUS
	if failed {
		j.Outcome = OutcomeError
	} else {
		j.Outcome = OutcomeOK
	}
}

// Abandon records worker claiming job i after a failure stopped the batch:
// the job is charged to the worker but never executed.
func (l *Ledger) Abandon(i, worker int) {
	if l == nil || i < 0 || i >= len(l.jobs) {
		return
	}
	j := &l.jobs[i]
	j.Worker = worker
	j.ClaimUS = l.stamp()
	j.Outcome = OutcomeAbandoned
}

// End marks the batch drained: wall time stops here.
func (l *Ledger) End() {
	if l == nil {
		return
	}
	l.endUS = l.stamp()
	l.ended = true
}

// Stats folds the ledger into the speedup ledger.  Returns nil for a nil
// ledger or one that never registered a job.
func (l *Ledger) Stats() *SchedStats {
	if l == nil || len(l.jobs) == 0 {
		return nil
	}
	end := l.endUS
	if !l.ended {
		end = l.stamp()
	}
	s := Compute(l.jobs, l.workersRequested, l.workersEffective, l.beginUS, end)
	s.ClaimPolicy = l.claimPolicy
	s.CPUs = runtime.NumCPU()
	s.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if l.snapValid {
		after := ReadRuntimeSnapshot()
		after.AtUS = end
		d := l.snapBegin.DeltaTo(after)
		s.Runtime = &d
		if s.Jobs.Finished > 0 {
			s.Runtime.AllocBytesPerJob = float64(s.Runtime.AllocBytes) / float64(s.Jobs.Finished)
		}
		s.ContentionWaitUS = float64(d.MutexWaitNS) / float64(time.Microsecond/time.Nanosecond)
	}
	return s
}

// JobCounts is the ledger balance: Enqueued = Claimed + Unclaimed, and
// Claimed = Finished + Abandoned (claimed-but-in-flight jobs only appear
// while the batch is still running).  Errors counts the Finished jobs that
// returned one.
type JobCounts struct {
	Enqueued  int `json:"enqueued"`
	Claimed   int `json:"claimed"`
	Finished  int `json:"finished"`
	Errors    int `json:"errors,omitempty"`
	Abandoned int `json:"abandoned,omitempty"`
	Unclaimed int `json:"unclaimed,omitempty"`
}

// WorkerStats is one worker's line in the speedup ledger.  BusyUS + IdleUS
// equals the batch wall time by construction.
type WorkerStats struct {
	Worker      int     `json:"worker"`
	Jobs        int     `json:"jobs"`
	BusyUS      float64 `json:"busy_us"`
	IdleUS      float64 `json:"idle_us"`
	Utilization float64 `json:"utilization"`
}

// SchedStats is the speedup ledger for one batch: where the parallel wall
// time went, and how the measured overlap compares to the speedup the
// measured serial fraction predicts.
type SchedStats struct {
	// WorkersRequested is the parallelism the run asked for;
	// WorkersEffective is what the batch actually used after capping at
	// the job count (a report quoting Requested alone overstates small
	// batches).
	WorkersRequested int `json:"workers_requested"`
	WorkersEffective int `json:"workers_effective"`

	Jobs   JobCounts `json:"jobs"`
	WallUS float64   `json:"wall_us"`
	// TotalBusyUS is the summed execution time of every finished job —
	// the work the batch did, and the numerator of OverlapX.
	TotalBusyUS float64 `json:"total_busy_us"`

	// SerialUS is wall time during which at most one job was in flight;
	// SerialFraction is the share of the *work* that ran without overlap
	// (Amdahl's f, measured structurally from the timeline).
	SerialUS       float64 `json:"serial_us"`
	SerialFraction float64 `json:"serial_fraction"`

	// CriticalPathUS is the longest single job: no schedule of these
	// (independent) jobs can finish faster.
	CriticalPathUS float64 `json:"critical_path_us"`
	// ImbalancePct is (max - mean)/mean of per-worker busy time: how much
	// longer the most loaded worker ran than the average.
	ImbalancePct float64 `json:"imbalance_pct"`

	// OverlapX is busy time over wall time: the mean number of jobs in
	// flight.  It is not a wall-clock speedup — jobs stretched by a
	// timeshared CPU count as overlap.
	OverlapX float64 `json:"overlap_x"`

	// ClaimPolicy is how the workers ordered their claims (PolicyFIFO or
	// PolicyLJF); empty on ledgers recorded before policies existed.
	ClaimPolicy string `json:"claim_policy,omitempty"`
	// CPUs and GOMAXPROCS are the hardware and runtime parallelism the
	// batch actually had available.  OverlapX is busy/wall, which on an
	// oversubscribed machine (workers > CPUs) counts timesharing dilation
	// as overlap — compare against CPUs before reading it as a speedup.
	CPUs       int `json:"cpus,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// DilationX is measured-over-estimated duration (Σ dur / Σ est) across
	// finished jobs whose estimate came from priors.  ≈1 means jobs ran at
	// the speed history predicted; ≫1 means concurrent execution stretched
	// them (CPU oversubscription, contention).  Zero when no prior-based
	// estimates were recorded.
	DilationX float64 `json:"dilation_x,omitempty"`

	// ContentionWaitUS is the runtime's cumulative sync.Mutex wait time
	// across the batch (from runtime/metrics), an estimate of lock
	// contention inside the workers.
	ContentionWaitUS float64 `json:"contention_wait_us"`

	Workers []WorkerStats `json:"workers"`
	Runtime *RuntimeDelta `json:"runtime,omitempty"`
	Ledger  []JobRecord   `json:"ledger,omitempty"`
}

// Compute folds job records into the speedup ledger.  It is a pure
// function of its arguments: timestamps come from the records, wall time
// is endUS - beginUS, and no clock is consulted — synthetic timelines
// produce exact numbers.
func Compute(jobs []JobRecord, requested, effective int, beginUS, endUS float64) *SchedStats {
	if effective < 1 {
		effective = 1
	}
	s := &SchedStats{
		WorkersRequested: requested,
		WorkersEffective: effective,
		WallUS:           endUS - beginUS,
		Ledger:           append([]JobRecord(nil), jobs...),
	}

	workers := make([]WorkerStats, effective)
	for w := range workers {
		workers[w].Worker = w
	}
	for _, j := range jobs {
		s.Jobs.Enqueued++
		switch j.Outcome {
		case OutcomeUnclaimed:
			s.Jobs.Unclaimed++
			continue
		case OutcomeAbandoned:
			s.Jobs.Claimed++
			s.Jobs.Abandoned++
			continue
		case OutcomeClaimed:
			s.Jobs.Claimed++
			continue
		}
		s.Jobs.Claimed++
		s.Jobs.Finished++
		if j.Outcome == OutcomeError {
			s.Jobs.Errors++
		}
		s.TotalBusyUS += j.DurUS
		if j.DurUS > s.CriticalPathUS {
			s.CriticalPathUS = j.DurUS
		}
		if j.Worker >= 0 && j.Worker < effective {
			workers[j.Worker].Jobs++
			workers[j.Worker].BusyUS += j.DurUS
		}
	}

	// Per-worker idle is defined against the batch wall, so busy + idle
	// sums to wall exactly and utilization is busy/wall.
	var maxBusy, sumBusy float64
	for w := range workers {
		workers[w].IdleUS = s.WallUS - workers[w].BusyUS
		if s.WallUS > 0 {
			workers[w].Utilization = workers[w].BusyUS / s.WallUS
		}
		sumBusy += workers[w].BusyUS
		if workers[w].BusyUS > maxBusy {
			maxBusy = workers[w].BusyUS
		}
	}
	s.Workers = workers
	if mean := sumBusy / float64(effective); mean > 0 {
		s.ImbalancePct = 100 * (maxBusy - mean) / mean
	}

	var estPriorUS, durPriorUS float64
	for _, j := range jobs {
		if j.executed() && j.EstSource == EstPrior && j.EstUS > 0 {
			estPriorUS += j.EstUS
			durPriorUS += j.DurUS
		}
	}
	if estPriorUS > 0 {
		s.DilationX = durPriorUS / estPriorUS
	}

	serialWallUS, serialBusyUS := concurrencyProfile(jobs, beginUS, endUS)
	s.SerialUS = serialWallUS
	if s.TotalBusyUS > 0 {
		s.SerialFraction = serialBusyUS / s.TotalBusyUS
		// The two sides accumulate the same intervals in different orders,
		// so a fully serial timeline can land a few ulps off 1 in either
		// direction.  Any real overlap is at least a whole microsecond out
		// of the totals, orders of magnitude beyond this band.
		if s.SerialFraction > 1 || 1-s.SerialFraction < 1e-12 {
			s.SerialFraction = 1
		}
	}
	if s.WallUS > 0 {
		s.OverlapX = s.TotalBusyUS / s.WallUS
	}
	return s
}

// concurrencyProfile sweeps the executed jobs' start/finish timeline and
// returns the wall time with at most one job in flight (serialWallUS) and
// the work done while exactly one job was in flight (serialBusyUS) —
// respectively the wall-clock and work-basis views of the serial part of
// the batch.
func concurrencyProfile(jobs []JobRecord, beginUS, endUS float64) (serialWallUS, serialBusyUS float64) {
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, j := range jobs {
		if !j.executed() {
			continue
		}
		edges = append(edges, edge{j.StartUS, +1}, edge{j.FinishUS, -1})
	}
	if len(edges) == 0 {
		return endUS - beginUS, 0
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		// Finishes before starts at the same instant, so a back-to-back
		// handoff does not count as overlap.
		return edges[a].delta < edges[b].delta
	})
	prev, conc := beginUS, 0
	for _, e := range edges {
		if dt := e.at - prev; dt > 0 {
			if conc <= 1 {
				serialWallUS += dt
			}
			if conc == 1 {
				serialBusyUS += dt
			}
		}
		prev = e.at
		conc += e.delta
	}
	if dt := endUS - prev; dt > 0 && conc <= 1 {
		serialWallUS += dt
		if conc == 1 {
			serialBusyUS += dt
		}
	}
	return serialWallUS, serialBusyUS
}
