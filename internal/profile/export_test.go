package profile

import (
	"interplab/internal/atom"
	"interplab/internal/trace"
)

// RefCollector is the per-event attribution oracle the tally-charging
// Collector is tested against: the collector's logic from before it read
// the probe's tallies, when it sat on the event stream and attributed
// every event as it arrived.  It re-resolves the sample stack from the
// probe's state whenever the attribution version moves, without the
// collector's memo tables, so it shares only the trie and the profile
// rendering with its subject.  Emit takes one event, so a test sink
// unrolls each block into it; the probe it observes must run under
// RequireAttrSync, so that each event arrives while the state it was
// emitted under is still current.
type RefCollector struct {
	c       *Collector
	version uint64
	n       *node
}

// NewRefCollector returns an oracle attributing p's stream.
func NewRefCollector(p *atom.Probe) *RefCollector {
	c := NewCollector()
	c.probe = p
	return &RefCollector{c: c}
}

func (r *RefCollector) node() *node {
	if v := r.c.probe.AttrVersion(); r.n == nil || v != r.version {
		r.version, r.n = v, r.c.resolve()
	}
	return r.n
}

// Emit attributes one native instruction.
func (r *RefCollector) Emit(e trace.Event) {
	n := r.node()
	n.values[SampleInstructions]++
	switch e.Kind {
	case trace.Load:
		n.values[SampleLoads]++
	case trace.Store:
		n.values[SampleStores]++
	case trace.Branch:
		n.values[SampleBranches]++
	}
}

// IMiss attributes one instruction-cache miss.
func (r *RefCollector) IMiss(level int) { r.node().values[SampleIMiss]++ }

// DMiss attributes one data-cache miss.
func (r *RefCollector) DMiss(level int) { r.node().values[SampleDMiss]++ }

// Profile renders the samples attributed so far.
func (r *RefCollector) Profile(program string) *Profile { return r.c.snapshot(program) }
