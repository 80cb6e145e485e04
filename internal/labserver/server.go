// Package labserver is the lab-as-a-service layer: a long-running HTTP
// daemon (`interp-lab serve`) that accepts measurement and profile
// requests, deduplicates identical in-flight requests with
// singleflight-style admission, measures each admitted request on one of a
// fixed pool of workers straight through core, shares one
// content-addressed measurement cache across every session, and streams
// manifest-identical results (plus folded stacks and pprof bytes for
// profile requests) back to each waiter.
//
// The admission path is where the paper's one-shot CLI becomes a system
// that can serve sustained traffic:
//
//   - Singleflight: concurrent requests with the same content address
//     (the rescache key) share one measurement — a stampede of N identical
//     requests costs one execution, and every waiter gets byte-identical
//     response bytes.
//   - Workers: Config.Parallelism workers take admitted requests in
//     arrival order, one at a time, and each request is answered as soon
//     as its own measurement ends — a cache hit is never held behind a
//     long measurement on another worker.  A worker waiting on an empty
//     queue lends its slot to the running measurements, whose simulators
//     then run beside their guests, and takes it back when a request
//     arrives, without waiting for the borrower (trace.Slots).
//   - Backpressure: the admission queue is bounded; when it is full the
//     server answers 429 with Retry-After instead of queueing unboundedly.
//   - Deadlines: each request waits at most min(its timeout_ms, the
//     server's request timeout); on expiry the waiter gets 504 while the
//     measurement completes server-side and populates the shared cache.
//   - Graceful drain: shutdown stops admission (503), then drains queued
//     and in-flight requests before the process exits.
//   - Panic isolation: a panicking measurement fails its own request with
//     500; a panicking handler is caught at the top of the mux.
//
// Everything is observable: server.* metrics (in-flight, dedup hits,
// queue depth, cache hits, latency), request and measurement spans in the
// run tracer, and a /statusz endpoint.  See docs/SERVING.md.
package labserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"interplab/internal/core"
	"interplab/internal/harness"
	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
)

// Config configures a Server.  The zero value serves with defaults and no
// cache.
type Config struct {
	// Cache is the shared measurement cache; nil serves uncached (every
	// non-deduplicated request measures).
	Cache *rescache.Cache
	// Parallelism is the number of workers measuring admitted requests
	// (0 = GOMAXPROCS).
	Parallelism int
	// QueueDepth bounds the admission queue of requests waiting for a
	// worker; a request arriving with the queue full is rejected with 429
	// (default 64).
	QueueDepth int
	// RequestTimeout caps every request's wait, regardless of its own
	// timeout_ms (default 2m).
	RequestTimeout time.Duration

	// Telemetry receives the server.* instruments plus everything core
	// records; nil disables metrics (statusz then carries no snapshot).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records request admission spans alongside the
	// workers' measurement lanes.
	Tracer *telemetry.Tracer

	// gate, when non-nil, makes a worker wait for a receive before
	// measuring each call (test seam for dedup, backpressure and drain
	// tests).
	gate chan struct{}
}

func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 2 * time.Minute
}

// call is one admitted measurement and everybody waiting on it: the
// creator plus every deduplicated joiner.  done is closed once status,
// body and cached are final; body bytes are rendered exactly once, so all
// waiters answer byte-identically.
type call struct {
	key  string
	rr   *resolved
	done chan struct{}

	status int
	body   []byte
	cached bool // answered from the cache: its joiners shared no measurement
}

// Server is the measurement server.  It implements http.Handler; create
// with New, shut down with Drain.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	mux   *http.ServeMux
	start time.Time

	mu       sync.Mutex
	inflight map[string]*call
	draining bool
	queue    chan *call

	// slots holds the slots of workers waiting on an empty queue.
	slots trace.Slots

	workers sync.WaitGroup // running workers; each exits once Drain closes the queue and it is empty
}

// New starts a server (its workers run until Drain).
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Telemetry,
		start:    time.Now(),
		inflight: make(map[string]*call),
		queue:    make(chan *call, cfg.queueDepth()),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/measure", s.handleMeasure)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	for w := 0; w < cfg.parallelism(); w++ {
		s.workers.Add(1)
		// Lane 1 carries the admission spans; workers get 2..n+1.
		go s.worker(w + 2)
	}
	return s
}

// ServeHTTP dispatches to the server's endpoints, isolating handler
// panics to a 500 on the one request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.reg.Counter("server.panics").Inc()
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal panic: %v", rec)})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every body type here is a plain struct; Marshal cannot fail.
		status, b = http.StatusInternalServerError, []byte(`{"error":"encode response"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// handleMeasure admits one measurement request and waits for its result.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a measurement request (see docs/SERVING.md)"})
		return
	}
	started := time.Now()
	s.reg.Counter("server.requests").Inc()
	var req Request
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reg.Counter("server.bad_requests").Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	rr, herr := resolve(req)
	if herr != nil {
		s.reg.Counter("server.bad_requests").Inc()
		writeJSON(w, herr.status, errorBody{Error: herr.msg})
		return
	}
	key := rr.key.Hash()
	span := s.cfg.Tracer.Start("serve "+rr.prog.ID(), "kind", rr.req.Kind, "key", key[:12])
	defer span.End()

	c, deduped, herr := s.admit(key, rr)
	if herr != nil {
		if herr.status == http.StatusTooManyRequests {
			// Workers take a queued call as soon as one finishes, so the
			// earliest retry worth making is the smallest one the header
			// can say.
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, herr.status, errorBody{Error: herr.msg, Key: key})
		return
	}
	if deduped {
		s.reg.Counter("server.dedup_hits").Inc()
	}
	w.Header().Set("X-Interp-Lab-Key", key)

	s.reg.Gauge("server.inflight").Add(1)
	defer s.reg.Gauge("server.inflight").Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), req.timeout(s.cfg.requestTimeout()))
	defer cancel()
	select {
	case <-c.done:
		// A duplicate that arrives just after a measurement ended starts a
		// call of its own, which the cache answers, and later duplicates
		// may join that call.  Mark only requests that shared an executed
		// measurement: with a cache, a key's marked answers are then all
		// one measurement's bytes.
		if deduped && !c.cached {
			w.Header().Set("X-Interp-Lab-Deduped", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(c.status)
		w.Write(c.body)
		s.reg.Histogram("server.request_us").Observe(uint64(time.Since(started) / time.Microsecond))
	case <-ctx.Done():
		// The waiter leaves; the measurement continues server-side and
		// populates the shared cache, so a retry is nearly free.
		s.reg.Counter("server.timeouts").Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorBody{
			Error: "deadline exceeded waiting for the measurement (it continues server-side and will populate the cache)",
			Key:   key,
		})
	}
}

// admit registers the request under singleflight admission: an identical
// in-flight call is joined, otherwise a new call is enqueued.  Rejections:
// 503 while draining, 429 when the bounded queue is full.
func (s *Server) admit(key string, rr *resolved) (c *call, deduped bool, herr *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, &httpError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if c := s.inflight[key]; c != nil {
		return c, true, nil
	}
	c = &call{key: key, rr: rr, done: make(chan struct{})}
	select {
	case s.queue <- c:
	default:
		s.reg.Counter("server.queue_rejects").Inc()
		return nil, false, &httpError{status: http.StatusTooManyRequests, msg: "admission queue is full; retry shortly"}
	}
	s.inflight[key] = c
	s.reg.Gauge("server.queue_depth").Add(1)
	return c, false, nil
}

// worker answers admitted calls one at a time, in arrival order, with its
// measurement spans on the given trace lane.  It exits once Drain has
// closed the queue and the queue is empty.
func (s *Server) worker(lane int) {
	defer s.workers.Done()
	for {
		c, ok := s.next()
		if !ok {
			return
		}
		s.reg.Gauge("server.queue_depth").Add(-1)
		if s.cfg.gate != nil {
			<-s.cfg.gate
		}
		c.status, c.body = s.answer(c, lane)
		s.mu.Lock()
		delete(s.inflight, c.key)
		s.mu.Unlock()
		close(c.done)
	}
}

// next takes the next admitted call, lending the worker's slot while the
// queue is empty.  It reports false once Drain has closed the queue and
// the queue is empty.
func (s *Server) next() (*call, bool) {
	select {
	case c, ok := <-s.queue:
		return c, ok
	default:
	}
	s.slots.Lend()
	defer s.slots.Reclaim()
	c, ok := <-s.queue
	return c, ok
}

// answer measures one call and renders its response: the
// manifest-identical measurement record, plus profile artifacts on
// profiling requests.  A failed measurement is a 500 naming the error; a
// panic in the measurement or the rendering is a 500 naming the panic, and
// fails this call alone.
func (s *Server) answer(c *call, lane int) (status int, body []byte) {
	defer func() {
		if rec := recover(); rec != nil {
			s.reg.Counter("server.panics").Inc()
			status, body = s.failed(c, fmt.Errorf("%s: measurement panicked: %v", c.rr.prog.ID(), rec))
		}
	}()
	res, dur, err := s.measure(c.rr, lane)
	if err != nil {
		return s.failed(c, err)
	}
	c.cached = res.FromCache
	if res.FromCache {
		s.reg.Counter("server.cache_hits").Inc()
	} else {
		s.reg.Counter("server.cache_misses").Inc()
	}
	resp := Response{
		Key:         c.key,
		Measurement: harness.NewMeasurement(c.rr.req.Kind, res, dur, c.rr.sweep),
	}
	if res.Profile != nil {
		pa := harness.ProfileRecord(res.Profile)
		resp.Profile = &pa
		var folded strings.Builder
		if err := res.Profile.WriteFolded(&folded, profile.SampleInstructions); err == nil {
			resp.Folded = folded.String()
		}
		var pprofBuf bytes.Buffer
		if err := res.Profile.WritePprof(&pprofBuf); err == nil {
			resp.Pprof = pprofBuf.Bytes()
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return s.failed(c, fmt.Errorf("encode response: %v", err))
	}
	return http.StatusOK, append(b, '\n')
}

// measure runs one resolved request through core on the given trace lane,
// under the request's cache scope and profiling mode.
func (s *Server) measure(rr *resolved, lane int) (core.Result, time.Duration, error) {
	id := rr.prog.ID()
	span := s.cfg.Tracer.StartOn(lane, "measure "+id, "program", id, "kind", rr.req.Kind)
	defer span.End()
	opts := []core.MeasureOption{
		core.WithTracer(s.cfg.Tracer),
		core.WithTraceLane(lane),
		core.WithTelemetry(s.reg),
		core.WithCache(s.cfg.Cache, rr.scope),
		core.WithSlots(&s.slots),
	}
	if rr.req.Profiling {
		opts = append(opts, core.WithProfiling())
	}
	start := time.Now()
	var res core.Result
	var err error
	switch rr.req.Kind {
	case "measure":
		res, err = core.Measure(rr.prog, opts...)
	case "pipeline":
		res, err = core.MeasureWithPipeline(rr.prog, *rr.cfg, opts...)
	case "sweep":
		res, err = core.MeasureWithSweep(rr.prog, rr.sweep, opts...)
	default:
		// resolve() already vetted the kind.
		err = fmt.Errorf("unknown kind %q", rr.req.Kind)
	}
	return res, time.Since(start), err
}

// failed renders a failed call's 500 body.
func (s *Server) failed(c *call, err error) (int, []byte) {
	s.reg.Counter("server.errors").Inc()
	body, _ := json.Marshal(errorBody{Error: err.Error(), Key: c.key})
	return http.StatusInternalServerError, append(body, '\n')
}

// Drain gracefully shuts the server down: new requests are rejected with
// 503, then the workers answer every queued and in-flight call and exit.
// It returns ctx's error if the drain does not finish in time (queued work
// keeps draining in the background regardless).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("labserver: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// queueLen returns the number of admitted calls waiting for a worker.
func (s *Server) queueLen() int { return len(s.queue) }

// goroutines reports the process goroutine count for /statusz.
func goroutines() int { return runtime.NumGoroutine() }
