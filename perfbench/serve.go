package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"interplab/internal/core"
	"interplab/internal/labserver"
	"interplab/internal/rescache"
	"interplab/internal/workloads"
)

const (
	// burstDup is how many identical requests a burst carries besides its
	// one distinct request: the duplicate-heavy burst the CI serve-smoke
	// job sends (8 identical requests plus 1 distinct) and the ROADMAP's
	// server latency item names.
	burstDup = 8
	// serveScale is the workload scale every request asks for.
	serveScale = 0.05
)

// serveKeys are the measurements clients ask for: des on every system,
// plain and through the simulated processor.
var serveKeys = func() []labserver.Request {
	var out []labserver.Request
	for _, kind := range []string{"measure", "pipeline"} {
		for _, sys := range []core.System{core.SysC, core.SysMIPSI, core.SysJava, core.SysPerl, core.SysTcl} {
			out = append(out, labserver.Request{Kind: kind, Program: string(sys) + "/des", Scale: serveScale})
		}
	}
	return out
}()

// serveKey names the golden measurement of a request.
func serveKey(req labserver.Request) string {
	return fmt.Sprintf("%s %s scale=%g", req.Kind, req.Program, req.Scale)
}

// serveProgram looks a serve key's program up in the suite.
func serveProgram(id string) (core.Program, error) {
	for _, p := range workloads.Suite(serveScale) {
		if p.ID() == id {
			return p, nil
		}
	}
	return core.Program{}, fmt.Errorf("no program %s in the suite", id)
}

// serveRun is the serving workload: an in-process measurement server on a
// localhost port with a fresh measurement cache, primed with every key of
// serveKeys, answering one burst at a time.  A burst sends burstDup
// identical requests for a key under a cache scope of its own, so the
// server measures it once and the rest join that measurement, plus one
// request for a different, primed key, which the cache answers.  Every
// run of len(serveKeys) bursts duplicates each key once, in a seed-chosen
// order: the keys differ in cost by an order of magnitude, and a drawn mix
// would move the median latency from seed to seed.  Each
// answer is checked against the golden measurement, and the identical
// requests must get byte-identical bodies.
type serveRun struct {
	rng    *rand.Rand
	golden *golden
	dir    string
	srv    *labserver.Server
	hs     *httptest.Server
	client *http.Client
	bursts int   // bursts sent, naming each burst's cache scope
	order  []int // indexes into serveKeys of the keys the next bursts duplicate
	err    error // first wrong answer
}

func setupServe(seed int64, l lab) (instance, error) {
	s, err := newServeRun(seed, l)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func newServeRun(seed int64, l lab) (*serveRun, error) {
	dir, err := scratchDir("serve-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := rescache.Open(dir, false)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serveRun{
		rng:    rand.New(rand.NewSource(seed)),
		golden: l.golden,
		dir:    dir,
		srv:    labserver.New(labserver.Config{Cache: cache, Telemetry: l.reg, Tracer: l.tracer}),
	}
	s.hs = httptest.NewServer(s.srv)
	// Keep a connection per request of a burst open between bursts.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: burstDup + 1}}
	for _, req := range serveKeys {
		body, _, err := s.post(req)
		if err != nil {
			s.close()
			return nil, err
		}
		if err := s.check(req, body); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s, nil
}

// post sends one request and returns the body of a successful answer and
// whether the request joined an identical one in flight.
func (s *serveRun) post(req labserver.Request) (body []byte, deduped bool, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	r, err := s.client.Post(s.hs.URL+"/measure", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, false, err
	}
	body, err = io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("%s: status %d: %s", serveKey(req), r.StatusCode, bytes.TrimSpace(body))
	}
	return body, r.Header.Get("X-Interp-Lab-Deduped") != "", nil
}

// check compares an answer's measurement with the golden one.
func (s *serveRun) check(req labserver.Request, body []byte) error {
	var resp struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", serveKey(req), err)
	}
	return s.golden.checkMeasurement(serveKey(req), resp.Measurement)
}

// run sends bursts until the deadline, each once the previous one has
// been answered.  Every request's latency runs from the burst's start to
// the last byte of its answer.
func (s *serveRun) run(deadline time.Time) (lat []time.Duration, failed int) {
	for time.Now().Before(deadline) {
		l, f := s.burst()
		lat = append(lat, l...)
		failed += f
	}
	return lat, failed
}

func (s *serveRun) burst() (lat []time.Duration, failed int) {
	s.bursts++
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(serveKeys))
	}
	i := s.order[0]
	s.order = s.order[1:]
	j := (i + 1 + s.rng.Intn(len(serveKeys)-1)) % len(serveKeys)
	dup := serveKeys[i]
	dup.Experiment = fmt.Sprintf("perfbench-burst-%d", s.bursts)
	reqs := []labserver.Request{serveKeys[j]}
	for k := 0; k < burstDup; k++ {
		reqs = append(reqs, dup)
	}
	bodies := make([][]byte, len(reqs))
	deduped := make([]bool, len(reqs))
	errs := make([]error, len(reqs))
	wrong := make([]error, len(reqs))
	durs := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for k, req := range reqs {
		wg.Add(1)
		go func(k int, req labserver.Request) {
			defer wg.Done()
			bodies[k], deduped[k], errs[k] = s.post(req)
			durs[k] = time.Since(start)
			if errs[k] == nil {
				wrong[k] = s.check(req, bodies[k])
			}
		}(k, req)
	}
	wg.Wait()
	// Requests that joined the burst's measurement share its body.
	var joined []byte
	for k, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
			failed++
			continue
		}
		lat = append(lat, durs[k])
		if wrong[k] != nil && s.err == nil {
			s.err = wrong[k]
		}
		if !deduped[k] {
			continue
		}
		if joined == nil {
			joined = bodies[k]
		} else if !bytes.Equal(bodies[k], joined) && s.err == nil {
			s.err = fmt.Errorf("requests that joined one measurement of %s got different bodies", serveKey(dup))
		}
	}
	return lat, failed
}

func (s *serveRun) verify() error { return s.err }

func (s *serveRun) close() {
	s.hs.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	os.RemoveAll(s.dir)
}
