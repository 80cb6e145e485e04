package profile

import (
	"sort"

	"interplab/internal/atom"
	"interplab/internal/trace"
)

// Frame-name vocabulary.  Op frames are "op:" + the interned virtual-command
// name; phase frames are "phase:" + atom.Phase.String(); FrameDispatch roots
// instructions issued between commands (the dispatch loop) and FrameStartup
// roots one-time precompilation.
const (
	FrameDispatch = "dispatch"
	FrameStartup  = "startup"
	OpPrefix      = "op:"
	PhasePrefix   = "phase:"
)

// PhaseFrame returns the stack frame name for a phase.
func PhaseFrame(ph atom.Phase) string { return PhasePrefix + ph.String() }

// node is one vertex of the collector's stack trie; its values are the
// *self* counts of the exact stack it terminates.
type node struct {
	frame    string
	parent   *node
	children map[string]*node
	values   [NumSampleTypes]int64
}

func (n *node) child(frame string) *node {
	c, ok := n.children[frame]
	if !ok {
		c = &node{frame: frame, parent: n}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[frame] = c
	}
	return c
}

// Collector folds a measured run's instruction stream into attribution
// samples.  It never sees the events themselves: the probe counts them as
// it emits them (atom.Probe.Tally), and at every attribution change
// (command begin/end, phase switch, call/return, routine switch) the
// collector charges the counts accumulated since the previous change —
// instructions, loads, stores and branches — to the sample node of the
// state they were emitted under, which is still current when the probe
// reports the change.  Profile makes the last charge.  The collector also
// implements alphasim.MissObserver: register it on the pipeline to join
// cache misses back to the issuing routine and opcode.
//
// A charge resolves the sample node only when events arrived since the
// previous one, and even then a memo on the probe's compact attribution
// state usually turns the resolve into two slice indexes: interpreters
// cycle through the same few (op, phase, routine) states millions of
// times, so the common charge is an index into the dense op×phase node
// table of the current (frames, routine) context.
type Collector struct {
	probe *atom.Probe
	root  node

	// The attributed stream is the probe's tally plus the extra tallies
	// of any producer emitting beside it; charged is the stream's
	// instruction, load, store and branch counts at the previous charge.
	tally   *trace.Counter
	extra   []*trace.Counter
	charged [4]uint64

	lastVersion uint64
	lastNode    *node
	stackBuf    []*atom.Routine
	addrs       map[string]uint64

	// Resolved-node memo, two-level: the (frames, routine) context changes
	// only on call/return/routine switch, so ctxTab caches its dense
	// (op+1)×phase node table and the far more frequent op/phase bumps
	// reduce to an array index.  tabs holds every context's table,
	// indexed by the probe's FramesID and then by the routine's Index+1
	// (0 before any routine runs).
	ctxFrames  uint64
	ctxRoutine int
	ctxTab     []*node
	tabs       [][][]*node
}

// NewCollector returns a collector; Bind attaches it to the probe whose
// stream it will observe.
func NewCollector() *Collector {
	return &Collector{addrs: make(map[string]uint64)}
}

// Bind attaches the probe whose attribution state keys the samples, and
// registers the collector's charge on the probe's attribution changes.
// The attributed stream is the probe's tally plus any extra tallies — a
// producer that emits beside the probe, such as the compiled-C path's
// mipsi.Native, whose events the probe's current state is charged with.
// Bind only tallies the run feeds: each one is read at every attribution
// change.  Must be called before the first event.  Runs that join cache
// misses back to the collector must also call Probe.RequireAttrSync, so
// that every block the pipeline sees was emitted under the probe's
// current state.
func (c *Collector) Bind(p *atom.Probe, extra ...*trace.Counter) {
	c.probe = p
	c.lastNode = nil
	c.tally, c.extra = p.Tally(), extra
	c.charged = c.counts()
	p.OnAttrChange(c.charge)
}

// counts sums the attributed stream's instruction, load, store and branch
// counts.
func (c *Collector) counts() [4]uint64 {
	t := c.tally
	n := [4]uint64{t.Total, t.ByKind[trace.Load], t.ByKind[trace.Store], t.ByKind[trace.Branch]}
	for _, t := range c.extra {
		n[0] += t.Total
		n[1] += t.ByKind[trace.Load]
		n[2] += t.ByKind[trace.Store]
		n[3] += t.ByKind[trace.Branch]
	}
	return n
}

// charge attributes the events counted since the previous charge to the
// probe's current state.  States under which nothing was emitted are never
// resolved, so they create no nodes and no frame addresses.
func (c *Collector) charge() {
	if c.tally == nil {
		return // never bound
	}
	now := c.counts()
	if now[0] == c.charged[0] {
		return
	}
	n := c.cur()
	n.values[SampleInstructions] += int64(now[0] - c.charged[0])
	n.values[SampleLoads] += int64(now[1] - c.charged[1])
	n.values[SampleStores] += int64(now[2] - c.charged[2])
	n.values[SampleBranches] += int64(now[3] - c.charged[3])
	c.charged = now
}

// resolve walks the trie to the node for the probe's current attribution
// state.
func (c *Collector) resolve() *node {
	n := &c.root
	if op, ok := c.probe.CurrentOp(); ok {
		n = n.child(OpPrefix + op)
	} else if c.probe.CurrentPhase() == atom.PhaseStartup {
		n = n.child(FrameStartup)
	} else {
		n = n.child(FrameDispatch)
	}
	n = n.child(PhaseFrame(c.probe.CurrentPhase()))
	c.stackBuf = c.probe.CallStack(c.stackBuf[:0])
	for _, r := range c.stackBuf {
		n = n.child(r.Name)
		if _, ok := c.addrs[r.Name]; !ok {
			c.addrs[r.Name] = uint64(r.Base)
		}
	}
	return n
}

// cur returns the sample node for the probe's current state, re-resolving
// only when the probe's attribution version moved, and then only on the
// first visit to a given attribution state — repeats hit the memo.
func (c *Collector) cur() *node {
	if c.probe == nil {
		return &c.root
	}
	if v := c.probe.AttrVersion(); c.lastNode == nil || v != c.lastVersion {
		c.lastVersion = v
		frames, ri := c.probe.FramesID(), 0
		if r := c.probe.CurrentRoutine(); r != nil {
			ri = r.Index() + 1
		}
		if c.ctxTab == nil || frames != c.ctxFrames || ri != c.ctxRoutine {
			c.ctxFrames, c.ctxRoutine, c.ctxTab = frames, ri, c.table(frames, ri)
		}
		// CurrentOpID is -1 between commands, hence the +1 bias.
		idx := (int(c.probe.CurrentOpID())+1)*atom.NumPhases + int(c.probe.CurrentPhase())
		if idx >= len(c.ctxTab) {
			tab := make([]*node, idx+1)
			copy(tab, c.ctxTab)
			c.ctxTab = tab
			c.tabs[frames][ri] = tab
		}
		n := c.ctxTab[idx]
		if n == nil {
			n = c.resolve()
			c.ctxTab[idx] = n
		}
		c.lastNode = n
	}
	return c.lastNode
}

// table returns the op×phase node table of one (frames, routine) context,
// growing the dense index to reach it.
func (c *Collector) table(frames uint64, ri int) []*node {
	if frames >= uint64(len(c.tabs)) {
		c.tabs = append(c.tabs, make([][][]*node, frames+1-uint64(len(c.tabs)))...)
	}
	row := c.tabs[frames]
	if ri >= len(row) {
		row = append(row, make([][]*node, ri+1-len(row))...)
		c.tabs[frames] = row
	}
	return row[ri]
}

// IMiss attributes one instruction-cache miss (alphasim.MissObserver).  The
// pipeline calls it synchronously while processing the block in flight,
// which was emitted under the probe's current state — provided the run
// flushes per attribution transition (Probe.RequireAttrSync, which
// core.run engages whenever it registers this observer).
func (c *Collector) IMiss(level int) {
	c.cur().values[SampleIMiss]++
}

// DMiss attributes one data-cache miss (alphasim.MissObserver).
func (c *Collector) DMiss(level int) {
	c.cur().values[SampleDMiss]++
}

// Profile charges the events counted since the last attribution change,
// then snapshots the collected samples into a finished profile labeled
// with the program id.  The collector can keep accumulating afterwards.
func (c *Collector) Profile(program string) *Profile {
	c.charge()
	return c.snapshot(program)
}

// snapshot renders the trie's samples as a profile.
func (c *Collector) snapshot(program string) *Profile {
	p := &Profile{Program: program, addrs: make(map[string]uint64, len(c.addrs))}
	for f, a := range c.addrs {
		p.addrs[f] = a
	}
	var stack []string
	var walk func(n *node)
	walk = func(n *node) {
		if n.frame != "" {
			stack = append(stack, n.frame)
		}
		var zero [NumSampleTypes]int64
		if n.values != zero && len(stack) > 0 {
			p.Samples = append(p.Samples, Sample{
				Stack:  append([]string(nil), stack...),
				Values: n.values,
			})
		}
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			walk(n.children[k])
		}
		if n.frame != "" {
			stack = stack[:len(stack)-1]
		}
	}
	walk(&c.root)
	sortSamples(p.Samples)
	return p
}
