package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"interplab/internal/core"
	"interplab/internal/workloads"
)

// desSizes bounds the des block count drawn for each system.  The ranges
// keep every system's measurement in the tens of milliseconds, so no one
// system dominates a round; the draw is uniform, so a round's median cost
// is the same for every seed once a run holds more than a few rounds.
var desSizes = []struct {
	mk     func(blocks int) core.Program
	lo, hi int
}{
	{workloads.DESNative, 16, 24},
	{workloads.DESMIPSI, 2, 4},
	{workloads.DESJava, 6, 10},
	{workloads.DESPerl, 2, 3},
	{workloads.DESTcl, 1, 2},
}

// desCase is one des input, the checksum every system must print for it,
// and the key of its golden measurement.
type desCase struct {
	prog core.Program
	want string
	key  string
}

// measureKey names the golden measurement of des at a block count.
func measureKey(p core.Program, blocks int) string {
	return fmt.Sprintf("measure %s blocks=%d", p.ID(), blocks)
}

// drawDES draws one des input per system, in a seed-chosen order.
func drawDES(rng *rand.Rand) []desCase {
	cases := make([]desCase, 0, len(desSizes))
	for _, i := range rng.Perm(len(desSizes)) {
		s := desSizes[i]
		blocks := s.lo + rng.Intn(s.hi-s.lo+1)
		p := s.mk(blocks)
		cases = append(cases, desCase{p, strconv.Itoa(workloads.DESChecksum(blocks)), measureKey(p, blocks)})
	}
	return cases
}

// checkDES compares a measured run's output with the reference checksum
// and its simulated result with the golden one.
func checkDES(g *golden, c desCase, res core.Result) error {
	if got := strings.TrimSpace(res.Stdout); got != c.want {
		return fmt.Errorf("%s printed %q, want checksum %s", c.prog.ID(), got, c.want)
	}
	return g.checkMeasurement(c.key, resultJSON("measure", res))
}

// measureRun is the bare-measurement workload: one operation measures a
// fresh des input on each of the five systems through core.Measure, the
// path every experiment and server request ends in, with no simulator,
// profiler or cache attached.  Every result is checked against its
// checksum and its golden measurement.
type measureRun struct {
	rng    *rand.Rand
	golden *golden
	opts   []core.MeasureOption
	err    error // first wrong output
}

func setupMeasure(seed int64, l lab) (instance, error) {
	m := &measureRun{rng: rand.New(rand.NewSource(seed)), golden: l.golden}
	if l.reg != nil {
		m.opts = []core.MeasureOption{core.WithTracer(l.tracer), core.WithTelemetry(l.reg)}
	}
	if err := m.round(); err != nil {
		return nil, err
	}
	return m, nil
}

// round measures one drawn input per system.
func (m *measureRun) round() error {
	for _, c := range drawDES(m.rng) {
		res, err := core.Measure(c.prog, m.opts...)
		if err != nil {
			return err
		}
		if err := checkDES(m.golden, c, res); err != nil && m.err == nil {
			m.err = err
		}
	}
	return nil
}

func (m *measureRun) run(deadline time.Time) (lat []time.Duration, failed int) {
	for time.Now().Before(deadline) {
		start := time.Now()
		if err := m.round(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: measure: %v\n", err)
			failed++
			continue
		}
		lat = append(lat, time.Since(start))
	}
	return lat, failed
}

func (m *measureRun) verify() error { return m.err }

func (m *measureRun) close() {}
