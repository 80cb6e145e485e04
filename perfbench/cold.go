package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"interplab/internal/harness"
)

// coldExperiments is the set one cold operation regenerates.  Together they
// measure every system and all three measurement kinds (table1: the
// microbenchmarks through the simulated processor; ablation: interpreter
// variants; opt-matrix: pipeline and instruction-cache sweep runs of every
// tier), while a pass stays short enough to repeat several times a run.
// Each of the other experiments takes about as long as the whole pass, even
// at the smallest scale.
var coldExperiments = []string{"table1", "ablation", "opt-matrix"}

// coldScale is the smallest workload scale the experiments honour; below
// it their per-program minimum sizes take over.
const coldScale = 0.05

// coldRun is the cold-regeneration workload: one operation renders every
// experiment of coldExperiments, in a seed-chosen order, with no
// measurement cache and one scheduler worker per CPU — what
// `interp-lab -scale 0.05 table1 ablation opt-matrix` does.  The parallel
// scheduler splits every instruction-cache sweep into one job per
// geometry, so the sweep decomposition's cost shows here.  Every rendering
// is checked against its golden text.
type coldRun struct {
	rng    *rand.Rand
	golden *golden
	opt    harness.Options
	err    error // first rendering that differed
}

func setupCold(seed int64, l lab) (instance, error) {
	c := &coldRun{
		rng:    rand.New(rand.NewSource(seed)),
		golden: l.golden,
		opt:    harness.Options{Scale: coldScale, Parallelism: runtime.GOMAXPROCS(0), Telemetry: l.reg, Tracer: l.tracer},
	}
	// table1 is the quickest experiment that runs all five systems.
	if err := c.render("table1", c.opt); err != nil {
		return nil, err
	}
	return c, nil
}

// render regenerates one experiment and checks its text against the golden
// rendering.
func (c *coldRun) render(id string, opt harness.Options) error {
	var buf bytes.Buffer
	opt.Out = &buf
	if err := harness.Run(id, opt); err != nil {
		return err
	}
	if err := c.golden.checkText(id, buf.String()); err != nil && c.err == nil {
		c.err = fmt.Errorf("at parallelism %d: %w", opt.Parallelism, err)
	}
	return nil
}

func (c *coldRun) run(deadline time.Time) (lat []time.Duration, failed int) {
	for time.Now().Before(deadline) {
		start := time.Now()
		ok := true
		for _, i := range c.rng.Perm(len(coldExperiments)) {
			if err := c.render(coldExperiments[i], c.opt); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: cold %s: %v\n", coldExperiments[i], err)
				ok = false
			}
		}
		if !ok {
			failed++
			continue
		}
		lat = append(lat, time.Since(start))
	}
	return lat, failed
}

// verify regenerates every experiment once more on the serial path, which
// must render the golden text too.
func (c *coldRun) verify() error {
	serial := c.opt
	serial.Parallelism = 1
	for _, id := range coldExperiments {
		if err := c.render(id, serial); err != nil {
			return err
		}
	}
	return c.err
}

func (c *coldRun) close() {}
