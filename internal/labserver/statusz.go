package labserver

import (
	"fmt"
	"net/http"
	"time"

	"interplab/internal/telemetry"
)

// Health is the /healthz body.  Clients pin Fingerprint across requests:
// a change means the server was rebuilt and every cached measurement it
// serves comes from a different lab build (the cache invalidates itself
// the same way).
type Health struct {
	OK       bool      `json:"ok"`
	Build    BuildInfo `json:"build"`
	UptimeS  float64   `json:"uptime_s"`
	Draining bool      `json:"draining"`
}

// handleHealthz answers liveness probes; a draining server reports 503 so
// load balancers stop routing to it while in-flight work finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		OK:       true,
		Build:    Info(),
		UptimeS:  time.Since(s.start).Seconds(),
		Draining: s.Draining(),
	}
	status := http.StatusOK
	if h.Draining {
		h.OK = false
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// CacheStatus summarizes the shared measurement cache for /statusz.
type CacheStatus struct {
	Dir      string `json:"dir"`
	ReadOnly bool   `json:"readonly,omitempty"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Puts     uint64 `json:"puts"`
	Corrupt  uint64 `json:"corrupt,omitempty"`
}

// Status is the /statusz body: admission state, the server.* (and core)
// metric snapshot, and the shared cache's counters.
type Status struct {
	Build      BuildInfo `json:"build"`
	UptimeS    float64   `json:"uptime_s"`
	Draining   bool      `json:"draining"`
	QueueDepth int       `json:"queue_depth"`
	Goroutines int       `json:"goroutines"`

	// CacheHitRatio is hits/(hits+misses) over served measurements (0
	// when nothing has been served yet).
	CacheHitRatio float64      `json:"cache_hit_ratio"`
	Cache         *CacheStatus `json:"cache,omitempty"`

	Metrics []telemetry.Metric `json:"metrics,omitempty"`
}

// handleStatusz renders the server's introspection page as JSON, or as
// text with ?format=text.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.status()
	if r.URL.Query().Get("format") == "text" {
		s.writeStatusText(w, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// status assembles the /statusz snapshot.
func (s *Server) status() Status {
	st := Status{
		Build:      Info(),
		UptimeS:    time.Since(s.start).Seconds(),
		Draining:   s.Draining(),
		QueueDepth: s.queueLen(),
		Goroutines: goroutines(),
		Metrics:    s.reg.Snapshot(),
	}
	hits := float64(s.reg.Counter("server.cache_hits").Value())
	misses := float64(s.reg.Counter("server.cache_misses").Value())
	if hits+misses > 0 {
		st.CacheHitRatio = hits / (hits + misses)
	}
	if c := s.cfg.Cache; c != nil {
		ch, cm, cp, cc := c.Counts()
		st.Cache = &CacheStatus{
			Dir:      c.Dir(),
			ReadOnly: c.ReadOnly(),
			Hits:     ch,
			Misses:   cm,
			Puts:     cp,
			Corrupt:  cc,
		}
	}
	return st
}

// writeStatusText renders the human view: a header, the cache summary, and
// the metric snapshot.
func (s *Server) writeStatusText(w http.ResponseWriter, st Status) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "interp-lab serve — %s (cache schema %d, %s)\n",
		st.Build.Fingerprint, st.Build.CacheSchema, st.Build.GoVersion)
	fmt.Fprintf(w, "uptime %.1fs, queue depth %d, goroutines %d, draining %v\n",
		st.UptimeS, st.QueueDepth, st.Goroutines, st.Draining)
	fmt.Fprintf(w, "cache hit ratio %.3f over served measurements\n", st.CacheHitRatio)
	if c := st.Cache; c != nil {
		fmt.Fprintf(w, "cache %s: %d hits, %d misses, %d puts, %d corrupt\n",
			c.Dir, c.Hits, c.Misses, c.Puts, c.Corrupt)
	}
	fmt.Fprintf(w, "\nmetrics:\n")
	for _, m := range st.Metrics {
		fmt.Fprintf(w, "  %s\n", m.String())
	}
}
