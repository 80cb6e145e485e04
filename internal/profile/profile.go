// Package profile is the attribution-profile layer of the laboratory: it
// folds the native-instruction stream of internal/atom into call-stack
// samples keyed by the probe's routine frames, the interpretation phase
// (fetch/decode vs. execute vs. startup), and the open virtual command.
//
// This is the hierarchical view behind the paper's Table 2 and §4: not just
// "how many instructions per command" but *which interpreter routine, under
// which virtual opcode, in which phase* every native instruction — and,
// when a simulated pipeline is attached, every instruction- and data-cache
// miss — belongs to.  Profiles export three ways:
//
//   - flat/cumulative text tables (WriteTop), the Table-2-style split;
//   - folded-stack text (WriteFolded) for flamegraph tooling;
//   - gzip-compressed pprof protobuf (WritePprof), hand-rolled with no
//     dependencies, loadable directly in `go tool pprof`.
//
// Sample stacks are rooted at the virtual-command frame ("op:<name>", or
// "dispatch" between commands, or "startup" during precompilation), then
// the phase frame ("phase:fetch_decode", ...), then the native call chain
// of interpreter routines, leaf last.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Sample value indices.  Every sample carries all NumSampleTypes values;
// miss counts stay zero unless the run attached a simulated pipeline.
const (
	SampleInstructions = iota
	SampleLoads
	SampleStores
	SampleBranches
	SampleIMiss
	SampleDMiss

	NumSampleTypes
)

// ValueType names one sample dimension, pprof-style.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// SampleTypes lists the profile's value dimensions, indexed by the Sample*
// constants.
var SampleTypes = [NumSampleTypes]ValueType{
	{Type: "instructions", Unit: "count"},
	{Type: "loads", Unit: "count"},
	{Type: "stores", Unit: "count"},
	{Type: "branches", Unit: "count"},
	{Type: "imiss", Unit: "count"},
	{Type: "dmiss", Unit: "count"},
}

// SampleTypeIndex resolves a sample-type name to its value index.
func SampleTypeIndex(name string) (int, bool) {
	for i, vt := range SampleTypes {
		if vt.Type == name {
			return i, true
		}
	}
	return 0, false
}

// Sample is one distinct attribution stack with its accumulated values.
type Sample struct {
	// Stack is root-first: op frame, phase frame, then routines, leaf last.
	Stack  []string
	Values [NumSampleTypes]int64
}

// Profile is the finished attribution profile of one measured run (or a
// merge of several).  Samples are in deterministic (stack-sorted) order.
type Profile struct {
	// Program is the measured program's id ("system/name"), or a merge
	// label.
	Program string
	Samples []Sample

	// addrs maps routine frame names to their synthetic code address, for
	// pprof location addresses.  Frames without an entry (op/phase/dispatch
	// frames) get address 0.
	addrs map[string]uint64
}

// Total returns the sum of one value over all samples.
func (p *Profile) Total(vi int) int64 {
	var t int64
	for i := range p.Samples {
		t += p.Samples[i].Values[vi]
	}
	return t
}

// FrameTotal returns the cumulative value attributed to samples whose stack
// contains frame — pprof's "cum" for that frame.
func (p *Profile) FrameTotal(frame string, vi int) int64 {
	var t int64
	for i := range p.Samples {
		for _, f := range p.Samples[i].Stack {
			if f == frame {
				t += p.Samples[i].Values[vi]
				break
			}
		}
	}
	return t
}

// sortSamples orders samples by their joined stack, the deterministic order
// every writer relies on.
func sortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		return stackLess(samples[i].Stack, samples[j].Stack)
	})
}

func stackLess(a, b []string) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// WriteFolded writes the profile in folded-stack format — one line per
// stack, "frame;frame;... value" — the input format of flamegraph tooling
// (inferno, speedscope, flamegraph.pl).  Only the chosen value is written;
// zero-valued stacks are skipped.  Output is deterministic: byte-identical
// for identical runs.
func (p *Profile) WriteFolded(w io.Writer, vi int) error {
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.Values[vi] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.Join(s.Stack, ";"), s.Values[vi]); err != nil {
			return err
		}
	}
	return nil
}

// topRow is one line of the WriteTop table.
type topRow struct {
	frame     string
	flat, cum int64
}

// WriteTop renders the flat/cumulative attribution table for one value — the
// `go tool pprof -top` view, computed directly.  Frames are ranked by flat
// value (ties by cumulative, then name); the top n are printed.  n <= 0
// prints every frame.
func (p *Profile) WriteTop(w io.Writer, n, vi int) error {
	flat := make(map[string]int64)
	cum := make(map[string]int64)
	for i := range p.Samples {
		s := &p.Samples[i]
		v := s.Values[vi]
		if v == 0 {
			continue
		}
		seen := make(map[string]bool, len(s.Stack))
		for k, f := range s.Stack {
			if k == len(s.Stack)-1 {
				flat[f] += v
			}
			if !seen[f] {
				cum[f] += v
				seen[f] = true
			}
		}
	}
	rows := make([]topRow, 0, len(cum))
	for f, c := range cum {
		rows = append(rows, topRow{frame: f, flat: flat[f], cum: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].flat != rows[j].flat {
			return rows[i].flat > rows[j].flat
		}
		if rows[i].cum != rows[j].cum {
			return rows[i].cum > rows[j].cum
		}
		return rows[i].frame < rows[j].frame
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	total := p.Total(vi)
	if _, err := fmt.Fprintf(w, "%s: %s, total %d\n", p.Program, SampleTypes[vi].Type, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%12s %7s %12s %7s  %s\n", "flat", "flat%", "cum", "cum%", "frame"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%12d %6.2f%% %12d %6.2f%%  %s\n",
			r.flat, pct(r.flat, total), r.cum, pct(r.cum, total), r.frame); err != nil {
			return err
		}
	}
	return nil
}

// WritePhaseSplit renders the Table-2-style per-opcode view: for every
// virtual command (plus the dispatch loop and startup), the instructions
// attributed to fetch/decode vs. execute, ranked by total.  Values come
// straight from the profile's op-rooted samples, so the table agrees with
// the folded/pprof exports by construction.
func (p *Profile) WritePhaseSplit(w io.Writer) error {
	type split struct {
		root   string
		fd, ex int64
		total  int64
	}
	agg := make(map[string]*split)
	for i := range p.Samples {
		s := &p.Samples[i]
		if len(s.Stack) == 0 {
			continue
		}
		v := s.Values[SampleInstructions]
		if v == 0 {
			continue
		}
		sp, ok := agg[s.Stack[0]]
		if !ok {
			sp = &split{root: s.Stack[0]}
			agg[s.Stack[0]] = sp
		}
		sp.total += v
		if len(s.Stack) > 1 {
			switch s.Stack[1] {
			case "phase:fetch_decode":
				sp.fd += v
			case "phase:execute":
				sp.ex += v
			}
		}
	}
	rows := make([]*split, 0, len(agg))
	for _, sp := range agg {
		rows = append(rows, sp)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].root < rows[j].root
	})
	total := p.Total(SampleInstructions)
	if _, err := fmt.Fprintf(w, "%s: fetch/decode vs execute by virtual command\n", p.Program); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %12s %12s %12s %7s\n", "command", "fetch/decode", "execute", "total", "share"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-24s %12d %12d %12d %6.2f%%\n",
			r.root, r.fd, r.ex, r.total, pct(r.total, total)); err != nil {
			return err
		}
	}
	return nil
}

func pct(v, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}

// Set accumulates the per-program profiles of a harness run.  A nil Set is
// a valid no-op receiver, so recording code need not branch.  Adds from
// concurrent measurement workers are safe; the harness's ordered collect
// still adds in submission order, so the merge stays deterministic.
type Set struct {
	mu    sync.Mutex
	m     map[string]*Profile
	order []string
}

// NewSet returns an empty profile set.
func NewSet() *Set { return &Set{m: make(map[string]*Profile)} }

// Add merges p into the set under its program id.  Re-measuring a program
// adds its values (deterministic runs merge deterministically).  Nil set or
// nil profile no-op.
func (s *Set) Add(p *Profile) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	have, ok := s.m[p.Program]
	if !ok {
		s.m[p.Program] = p
		s.order = append(s.order, p.Program)
		return
	}
	have.merge(p, nil)
}

// Profiles returns the set's profiles in first-added order.
func (s *Set) Profiles() []*Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Profile, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.m[id])
	}
	return out
}

// Merged flattens the set into one profile whose stacks are prefixed with
// the program id, so a single pprof/flamegraph file covers every measured
// interpreter side by side.  Programs appear in sorted order.
func (s *Set) Merged() *Profile {
	out := &Profile{Program: "all", addrs: make(map[string]uint64)}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := append([]string(nil), s.order...)
	sort.Strings(ids)
	for _, id := range ids {
		out.merge(s.m[id], []string{id})
	}
	return out
}

// merge folds other's samples into p, optionally prefixing their stacks.
func (p *Profile) merge(other *Profile, prefix []string) {
	if other == nil {
		return
	}
	byKey := make(map[string]int, len(p.Samples))
	for i := range p.Samples {
		byKey[strings.Join(p.Samples[i].Stack, ";")] = i
	}
	for i := range other.Samples {
		os := &other.Samples[i]
		stack := os.Stack
		if len(prefix) > 0 {
			stack = append(append([]string(nil), prefix...), os.Stack...)
		}
		key := strings.Join(stack, ";")
		if j, ok := byKey[key]; ok {
			for vi := range p.Samples[j].Values {
				p.Samples[j].Values[vi] += os.Values[vi]
			}
			continue
		}
		byKey[key] = len(p.Samples)
		p.Samples = append(p.Samples, Sample{Stack: stack, Values: os.Values})
	}
	if p.addrs == nil {
		p.addrs = make(map[string]uint64)
	}
	for f, a := range other.addrs {
		p.addrs[f] = a
	}
	sortSamples(p.Samples)
}
