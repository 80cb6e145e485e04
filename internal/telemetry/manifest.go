package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/labstats"
	"interplab/internal/trace"
)

// ManifestSchema identifies the manifest document type.
const ManifestSchema = "interp-lab/manifest"

// ManifestVersion is the current manifest schema version.  Readers accept
// any version up to this one.
const ManifestVersion = 1

// Manifest is the machine-readable record of one interp-lab run: the
// configuration, every experiment's rendered text and structured
// measurements, and the run's metric snapshot.  It is versioned so later
// tooling can read old records.
type Manifest struct {
	Schema    string      `json:"schema"`
	Version   int         `json:"version"`
	CreatedAt time.Time   `json:"created_at"`
	Config    RunConfig   `json:"config"`
	Runs      []*RunEntry `json:"experiments"`
	Metrics   []Metric    `json:"metrics,omitempty"`
	// AchievedParallelism is the run's process CPU time over its wall
	// time: how many CPUs it kept busy on average (schema v1 additive
	// field; 0 where the platform reports no CPU time).
	AchievedParallelism float64 `json:"achieved_parallelism,omitempty"`
}

// RunConfig records the knobs the run was launched with.
type RunConfig struct {
	Scale       float64  `json:"scale"`
	Experiments []string `json:"experiments"`
	// Parallelism is the measurement worker count the run was scheduled
	// with (schema v1 additive field; 0 in records that predate it).
	Parallelism int `json:"parallelism,omitempty"`
	// Cache describes the measurement cache the run consulted, when one was
	// attached (schema v1 additive field; nil in uncached runs).
	Cache *CacheInfo `json:"cache,omitempty"`
}

// CacheInfo records the measurement cache attached to a run and what it
// did: per-run hit/miss/store counts.  The hit and miss totals equal the
// per-measurement cache_hit flags summed over every experiment.
type CacheInfo struct {
	Dir         string `json:"dir"`
	ReadOnly    bool   `json:"readonly,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts,omitempty"`
	Corrupt     uint64 `json:"corrupt,omitempty"`
}

// RunEntry is one experiment's record: the exact text a direct run would
// have printed, plus the structured per-program measurements behind it.
type RunEntry struct {
	ID   string `json:"id"`
	Text string `json:"text"`
	// Error holds the failure message when the experiment errored; Text
	// stays empty then, but DurationUS is still recorded so failed runs
	// are visible in the manifest (schema v1 additive field).
	Error      string  `json:"error,omitempty"`
	DurationUS float64 `json:"duration_us,omitempty"`
	// CPUUS is the process CPU time, user plus system, the experiment
	// used: a getrusage delta over the same span as DurationUS (schema v1
	// additive field; 0 where the platform reports no CPU time).
	CPUUS        float64           `json:"cpu_us,omitempty"`
	Measurements []Measurement     `json:"measurements,omitempty"`
	Profiles     []ProfileArtifact `json:"profiles,omitempty"`

	// Sched is the experiment's scheduler introspection: one speedup
	// ledger per measurement batch (schema v1 additive field; every
	// current experiment runs exactly one batch).  Unlike every other
	// entry field it legitimately differs between two runs of the same
	// experiment — it records timing and worker assignment, not measured
	// results — so determinism comparisons null it the way they zero wall
	// times.  `interp-lab sched-report` renders it.
	Sched []*labstats.SchedStats `json:"sched,omitempty"`
}

// AddSched appends one batch's speedup ledger to the entry.  A nil entry
// or nil stats no-op, mirroring Add.
func (r *RunEntry) AddSched(s *labstats.SchedStats) {
	if r == nil || s == nil {
		return
	}
	r.Sched = append(r.Sched, s)
}

// ProfileArtifact is one program's attribution profile as recorded in the
// manifest (schema v1 additive field): summary totals plus the full
// folded-stack text, so flamegraphs can be rebuilt from the manifest alone.
// The harness fills it from internal/profile; telemetry stays independent
// of that package.
type ProfileArtifact struct {
	Program      string           `json:"program"`
	SampleTypes  []string         `json:"sample_types"`
	Samples      int              `json:"samples"`
	Instructions int64            `json:"instructions"`
	PhaseTotals  map[string]int64 `json:"phase_totals,omitempty"` // by atom.Phase name
	Folded       string           `json:"folded,omitempty"`       // instruction-count folded stacks
}

// AddProfile appends one profile artifact to the entry.  A nil entry
// no-ops, mirroring Add.
func (r *RunEntry) AddProfile(pa ProfileArtifact) {
	if r == nil {
		return
	}
	r.Profiles = append(r.Profiles, pa)
}

// Measurement is the structured result of measuring one program: the
// probe's software metrics (atom.Stats) and, when the run was simulated,
// the processor results (alphasim.Stats).
type Measurement struct {
	Program string `json:"program"` // "system/name"
	System  string `json:"system"`
	Name    string `json:"name"`
	// Variant distinguishes measurements of the same program under
	// different configurations — optimization tiers, dispatch knobs
	// (schema v1 additive field; empty for the default configuration).
	Variant    string  `json:"variant,omitempty"`
	SizeBytes  int     `json:"size_bytes,omitempty"`
	Events     uint64  `json:"events"` // native-instruction stream length
	Kind       string  `json:"kind"`   // "measure", "pipeline", "sweep"
	DurationUS float64 `json:"duration_us,omitempty"`
	// CacheHit marks a measurement restored from the measurement cache
	// instead of executed (schema v1 additive field).  Aside from wall time
	// it is indistinguishable from a fresh measurement.
	CacheHit bool `json:"cache_hit,omitempty"`

	// Batch accounts the batched event pipeline for this measurement:
	// events and blocks delivered to the simulating sinks, split by flush
	// trigger (schema v1 additive field; nil for a run without a pipeline
	// or sweep, which builds no blocks).
	Batch *trace.BatchStats `json:"batch,omitempty"`

	Stats *atom.Stats           `json:"stats,omitempty"`
	Pipe  *alphasim.Stats       `json:"pipe,omitempty"`
	Sweep []alphasim.SweepPoint `json:"sweep,omitempty"`
}

// NewManifest starts a manifest for a run at the given scale.
func NewManifest(scale float64) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		Version:   ManifestVersion,
		CreatedAt: time.Now().UTC(),
		Config:    RunConfig{Scale: scale},
	}
}

// StartRun appends (or returns the existing) record for one experiment id
// and registers the id in the config.
func (m *Manifest) StartRun(id string) *RunEntry {
	for _, r := range m.Runs {
		if r.ID == id {
			return r
		}
	}
	r := &RunEntry{ID: id}
	m.Runs = append(m.Runs, r)
	m.Config.Experiments = append(m.Config.Experiments, id)
	return r
}

// Add appends one measurement to the entry.  A nil entry no-ops, so
// recording code need not branch on whether a manifest is being kept.
func (r *RunEntry) Add(mm Measurement) {
	if r == nil {
		return
	}
	r.Measurements = append(r.Measurements, mm)
}

// AttachMetrics snapshots reg into the manifest.
func (m *Manifest) AttachMetrics(reg *Registry) { m.Metrics = reg.Snapshot() }

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses and validates a manifest document.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("telemetry: parse manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("telemetry: not a manifest (schema %q, want %q)", m.Schema, ManifestSchema)
	}
	if m.Version < 1 || m.Version > ManifestVersion {
		return nil, fmt.Errorf("telemetry: unsupported manifest version %d (reader supports <= %d)", m.Version, ManifestVersion)
	}
	return &m, nil
}

// RenderText re-renders the manifest to the text a direct run of the same
// experiments would have printed: each experiment's captured output, with
// a blank line between experiments (the interp-lab CLI's separator).
func (m *Manifest) RenderText(w io.Writer) error {
	for k, r := range m.Runs {
		if k > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, r.Text); err != nil {
			return err
		}
	}
	return nil
}
