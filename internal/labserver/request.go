package labserver

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/workloads"
)

// Request is the JSON body of POST /measure: one measurement, identified
// by the same fields the measurement cache keys on (experiment scope,
// kind, program, processor config, scale, profiling).  A request whose
// fields match a measurement a CLI run already cached is served from that
// entry; see docs/SERVING.md.  A body field Request does not name is a
// 400, so a misspelt one is never dropped in favour of a default.
type Request struct {
	// Experiment scopes the cache key ("" means the server's own "serve"
	// scope).  Naming a real experiment id lets the request share cache
	// entries with CLI runs of that experiment at the same scale.
	Experiment string `json:"experiment,omitempty"`
	// Kind is "measure", "pipeline", or "sweep".
	Kind string `json:"kind"`
	// Program is the workload id, "System/name" (e.g. "Perl/des"); see
	// the suites in internal/workloads.
	Program string `json:"program"`
	// Config is the simulated-processor configuration for pipeline
	// requests; nil means alphasim.DefaultConfig().  A config that fails
	// alphasim.Config.Validate is a 400.
	Config *alphasim.Config `json:"config,omitempty"`
	// Scale is the workload size multiplier (0 means 1).
	Scale float64 `json:"scale,omitempty"`
	// Profiling attaches the attribution profiler; the response then
	// carries the profile artifact, folded stacks, and pprof bytes.
	Profiling bool `json:"profiling,omitempty"`
	// TimeoutMS caps how long this request waits for its result; the
	// server's request timeout still applies.  On expiry the waiter gets
	// 504 but the measurement completes server-side and populates the
	// cache.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Response is the JSON body of a successful POST /measure.
type Response struct {
	// Key is the measurement's content address — the same rescache key
	// hash a CLI run with -cache would store this measurement under.
	Key string `json:"key"`
	// Measurement is the manifest-identical record of the result: the
	// bytes match the corresponding measurements[] entry of a CLI
	// `-json` manifest, apart from wall time (duration_us) and cache
	// provenance (cache_hit).
	Measurement telemetry.Measurement `json:"measurement"`
	// Profile, Folded and Pprof are present on profiling requests: the
	// manifest profile artifact, the merged folded stacks (flamegraph
	// input), and the gzip'd pprof protobuf (base64 in JSON, as Go
	// encodes []byte).
	Profile *telemetry.ProfileArtifact `json:"profile,omitempty"`
	Folded  string                     `json:"folded,omitempty"`
	Pprof   []byte                     `json:"pprof,omitempty"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Key   string `json:"key,omitempty"`
}

// maxScale bounds request scale: a stray large value would tie a worker up
// for hours on one request.
const maxScale = 16

// resolved is a validated, program-bound request ready to schedule.
type resolved struct {
	req   Request
	prog  core.Program
	cfg   *alphasim.Config      // pipeline
	sweep *alphasim.ICacheSweep // sweep (private to the one job)
	scope rescache.Scope
	key   rescache.Key
}

// httpError is a resolution failure with its HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// resolve validates req and binds it to a workload program, building the
// cache key its result is (or already was) stored under.
func resolve(req Request) (*resolved, *httpError) {
	if req.Program == "" {
		return nil, errBadRequest("missing program (want \"System/name\", e.g. \"Perl/des\")")
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 || scale > maxScale || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, errBadRequest("scale must be in (0, %d] (got %g)", maxScale, req.Scale)
	}
	rr := &resolved{req: req}
	rr.req.Scale = scale
	switch req.Kind {
	case "measure":
		if req.Config != nil {
			return nil, errBadRequest("config only applies to pipeline requests (kind %q)", req.Kind)
		}
	case "pipeline":
		cfg := alphasim.DefaultConfig()
		if req.Config != nil {
			if err := req.Config.Validate(); err != nil {
				return nil, errBadRequest("invalid config: %v", err)
			}
			cfg = *req.Config
		}
		rr.cfg = &cfg
	case "sweep":
		if req.Config != nil {
			return nil, errBadRequest("config only applies to pipeline requests (kind %q)", req.Kind)
		}
		rr.sweep = alphasim.DefaultICacheSweep()
	default:
		return nil, errBadRequest("unknown kind %q (measure, pipeline, sweep)", req.Kind)
	}
	prog, ok := findProgram(req.Program, scale)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown program %q (ids come from the workload suites; try \"Perl/des\")", req.Program)}
	}
	rr.prog = prog
	experiment := req.Experiment
	if experiment == "" {
		experiment = "serve"
	}
	rr.scope = rescache.Scope{Experiment: experiment, Scale: scale}
	rr.key = core.CacheKey(prog, rr.scope, rr.cfg, rr.sweep, req.Profiling)
	return rr, nil
}

// findProgram looks a workload up by id across every suite at the given
// scale: the Table 2 macro suite, the compiled-C native baselines, and the
// Table 1 microbenchmarks.
func findProgram(id string, scale float64) (core.Program, bool) {
	for _, p := range workloads.Suite(scale) {
		if p.ID() == id {
			return p, true
		}
	}
	for _, p := range workloads.NativeSuite(scale) {
		if p.ID() == id {
			return p, true
		}
	}
	for _, m := range workloads.Micros(scale) {
		for _, p := range m.Progs {
			if p.ID() == id {
				return p, true
			}
		}
	}
	return core.Program{}, false
}

// BuildInfo identifies the running lab build: the same binary fingerprint
// the measurement cache keys on, so a client comparing fingerprints across
// requests can detect a server upgrade that orphaned its cached results.
type BuildInfo struct {
	Fingerprint string `json:"fingerprint"`
	CacheSchema int    `json:"cache_schema"`
	GoVersion   string `json:"go_version"`
}

// Info returns the running build's identity.
func Info() BuildInfo {
	return BuildInfo{
		Fingerprint: rescache.Fingerprint(),
		CacheSchema: rescache.SchemaVersion,
		GoVersion:   runtime.Version(),
	}
}

// timeout resolves the effective wait deadline for a request under the
// server-side cap.
func (r Request) timeout(cap time.Duration) time.Duration {
	d := cap
	if r.TimeoutMS > 0 {
		if t := time.Duration(r.TimeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}
