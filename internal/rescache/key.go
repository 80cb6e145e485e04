// Package rescache is the lab's content-addressed measurement cache.
//
// Every measurement the harness schedules is deterministic: the same
// program, at the same scale, through the same simulated machine, produces
// byte-identical results (the parallel-determinism golden test pins this).
// That makes memoization sound — a measurement is a pure function of its
// inputs — so rescache stores each core.Result-shaped value on disk under a
// key that hashes everything the measurement depends on:
//
//   - the lab version fingerprint (a hash of the running binary, so any
//     rebuild invalidates every entry it wrote — see Fingerprint);
//   - the experiment id and workload scale (the harness scope);
//   - the job parameters: measurement kind, program identity
//     ("system/name") plus its variant tag (for same-ID programs that
//     differ by an interpreter knob, e.g. the ablation's threaded-dispatch
//     arm), the simulated-processor configuration, the instruction-cache
//     sweep geometry, and whether profiling was attached.
//
// Values are gzip-compressed JSON documents carrying the key they were
// stored under; a Get whose decoded key does not match, or whose file is
// corrupt or truncated, is a miss, never an error — the measurement simply
// re-runs and overwrites the entry.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// SchemaVersion is the entry-format version; it participates in every key,
// so a format change orphans old entries instead of misreading them.
// v2: entries carry batch-pipeline stats and keys distinguish per-event
// emission from batched emission.  v3: the per-event emission mode and
// its key field are gone.
const SchemaVersion = 3

// Scope is the harness-level part of a cache key: which experiment is
// measuring, at what workload scale.  The measurement-level fields are
// filled in by internal/core, which knows the actual job parameters.
type Scope struct {
	Experiment string
	Scale      float64
}

// Key identifies one measurement.  Two measurements with equal keys are
// interchangeable; any field difference must change the hash.
type Key struct {
	Schema      int     `json:"schema"`
	Fingerprint string  `json:"fingerprint"`
	Experiment  string  `json:"experiment"`
	Scale       float64 `json:"scale"`
	Kind        string  `json:"kind"`    // "measure", "pipeline", "sweep"
	Program     string  `json:"program"` // "system/name"
	Variant     string  `json:"variant,omitempty"`
	Config      string  `json:"config,omitempty"`
	Sweep       string  `json:"sweep,omitempty"`
	Profiling   bool    `json:"profiling,omitempty"`
}

// Hash returns the key's content address: the hex sha256 of its canonical
// JSON encoding.  Field order is fixed by the struct, so the encoding — and
// the hash — is stable across runs and builds.  Scale must be finite: JSON
// has no NaN or ±Inf, and harness.Run and labserver.resolve reject them
// before any key is built.
func (k Key) Hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// Only a non-finite Scale can fail the encoding; see above.
		panic(fmt.Sprintf("rescache: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ConfigKey canonicalizes a processor (or any other) configuration struct
// for the Key.Config field: its JSON encoding, which is deterministic for
// plain structs.
func ConfigKey(cfg any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Sprintf("unencodable:%v", err)
	}
	return string(b)
}

var (
	fingerprintOnce sync.Once
	fingerprintVal  string
)

// Fingerprint returns the lab version fingerprint: "lab-" plus the leading
// 16 hex digits of the sha256 of the running executable.  Any rebuild —
// toolchain bump, source edit, build-flag change — yields a different
// binary and therefore a different fingerprint, so cached results can never
// survive a change to the code that produced them.  When the executable
// cannot be read (an exotic platform), a schema-only fingerprint is
// returned; entries then invalidate on schema bumps alone.
func Fingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprintVal = fmt.Sprintf("lab-unhashed-v%d", SchemaVersion)
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		fingerprintVal = "lab-" + hex.EncodeToString(h.Sum(nil))[:16]
	})
	return fingerprintVal
}
