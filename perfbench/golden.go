package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/harness"
)

// goldenDir holds the reference results every workload checks against,
// relative to the root of a checkout.  They are generated with
// --write-golden from the lab the benchmark was written against.  The
// simulated results are the lab's specification, so a change that moves
// them makes every run report correct:false until the goldens are
// regenerated on purpose.
const goldenDir = "perfbench/golden"

// goldenMeasurements maps a measurement key (measureKey, serveKey) to its
// canonical record, one "key<TAB>json" line each, sorted by key.
const goldenMeasurements = "measurements.tsv"

// golden is the loaded reference set.
type golden struct {
	text         map[string]string // experiment id -> rendering at coldScale
	measurements map[string]string // key -> canonical measurement JSON
}

func loadGolden() (*golden, error) {
	g := &golden{text: make(map[string]string), measurements: make(map[string]string)}
	for _, id := range coldExperiments {
		b, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden rendering: %w", err)
		}
		g.text[id] = string(b)
	}
	f, err := os.Open(filepath.Join(goldenDir, goldenMeasurements))
	if err != nil {
		return nil, fmt.Errorf("golden measurements: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, js, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("golden measurements: malformed line %.80q", sc.Text())
		}
		g.measurements[key] = js
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden measurements: %w", err)
	}
	return g, nil
}

// checkText compares an experiment's rendering with its reference.
func (g *golden) checkText(id, got string) error {
	if want := g.text[id]; got != want {
		return fmt.Errorf("%s rendering differs from the golden one from line %d", id, firstDiffLine(got, want))
	}
	return nil
}

// checkMeasurement compares the canonical form of a manifest measurement
// (raw JSON, as served or as harness.NewMeasurement builds it) with the
// reference stored under key.
func (g *golden) checkMeasurement(key string, raw []byte) error {
	want, ok := g.measurements[key]
	if !ok {
		return fmt.Errorf("no golden measurement for %s", key)
	}
	got, err := canonicalJSON(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if got != want {
		return fmt.Errorf("%s differs from its golden measurement:\n got %.300s\nwant %.300s", key, got, want)
	}
	return nil
}

// canonicalJSON reduces a manifest measurement to the simulated result:
// it drops what legitimately varies between equal measurements — wall
// time, cache provenance, and the event pipeline's block accounting.
func canonicalJSON(raw []byte) (string, error) {
	var m struct {
		Program   string          `json:"program"`
		Variant   string          `json:"variant,omitempty"`
		SizeBytes int             `json:"size_bytes,omitempty"`
		Events    uint64          `json:"events"`
		Kind      string          `json:"kind"`
		Stats     json.RawMessage `json:"stats,omitempty"`
		Pipe      json.RawMessage `json:"pipe,omitempty"`
		Sweep     json.RawMessage `json:"sweep,omitempty"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	b, err := json.Marshal(m)
	return string(b), err
}

// resultJSON is the manifest record of a direct core measurement.
func resultJSON(kind string, res core.Result) []byte {
	b, err := json.Marshal(harness.NewMeasurement(kind, res, 0, nil))
	if err != nil {
		panic(err) // a manifest measurement always encodes
	}
	return b
}

func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// writeGolden regenerates every reference file from the lab in the
// checkout: the cold experiments rendered on one worker, every des input
// the measure workload can draw, and every key the serve workload asks for.
func writeGolden() error {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for _, id := range coldExperiments {
		var buf bytes.Buffer
		if err := harness.Run(id, harness.Options{Scale: coldScale, Parallelism: 1, Out: &buf}); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(goldenDir, id+".txt"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	lines := make(map[string][]byte)
	for _, s := range desSizes {
		for blocks := s.lo; blocks <= s.hi; blocks++ {
			p := s.mk(blocks)
			res, err := core.Measure(p)
			if err != nil {
				return err
			}
			lines[measureKey(p, blocks)] = resultJSON("measure", res)
		}
	}
	for _, req := range serveKeys {
		p, err := serveProgram(req.Program)
		if err != nil {
			return err
		}
		var res core.Result
		if req.Kind == "pipeline" {
			res, err = core.MeasureWithPipeline(p, alphasim.DefaultConfig())
		} else {
			res, err = core.Measure(p)
		}
		if err != nil {
			return err
		}
		lines[serveKey(req)] = resultJSON(req.Kind, res)
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out bytes.Buffer
	for _, k := range keys {
		js, err := canonicalJSON(lines[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "%s\t%s\n", k, js)
	}
	return os.WriteFile(filepath.Join(goldenDir, goldenMeasurements), out.Bytes(), 0o644)
}
