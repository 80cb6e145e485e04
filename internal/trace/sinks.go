package trace

// Counter tallies an event stream: how many events of each kind, and how
// many conditional branches were taken.  It backs the pure-counting
// experiments (Tables 1 and 2).  Producers keep one at emit time, filled
// whether or not any sink receives the events, so a run whose consumers
// only count builds no event blocks.  It is not a Sink.  Emit counts one
// event: the compiled-C producer tallies with it, and tests recount
// delivered blocks with it, the reference the tallies are checked against.
type Counter struct {
	Total   uint64
	ByKind  [numKinds]uint64
	TakenBr uint64
}

// Emit records e.
func (c *Counter) Emit(e Event) {
	c.Total++
	c.ByKind[e.Kind]++
	if e.Kind == Branch && e.Taken() {
		c.TakenBr++
	}
}

// Add adds another tally's counts to c.
func (c *Counter) Add(o Counter) {
	c.Total += o.Total
	for k, n := range o.ByKind {
		c.ByKind[k] += n
	}
	c.TakenBr += o.TakenBr
}

// Loads returns the number of Load events seen.
func (c *Counter) Loads() uint64 { return c.ByKind[Load] }

// Stores returns the number of Store events seen.
func (c *Counter) Stores() uint64 { return c.ByKind[Store] }

// Branches returns the number of conditional branch events seen.
func (c *Counter) Branches() uint64 { return c.ByKind[Branch] }

// Kind returns the count for one instruction kind.
func (c *Counter) Kind(k Kind) uint64 { return c.ByKind[k] }

// Multi fans one stream out to several sinks in order.
type Multi []Sink

// EmitBlock forwards the block to every sink, in fan order.
func (m Multi) EmitBlock(b *Block) {
	for _, s := range m {
		s.EmitBlock(b)
	}
}

// Discard drops every block.  A nil sink is not legal on a Probe; Discard
// is the explicit "count nothing, simulate nothing" choice.
var Discard Sink = discard{}

type discard struct{}

func (discard) EmitBlock(*Block) {}

// Recorder appends every event to memory.  Only suitable for small runs
// (unit tests, debugging); macro workloads produce tens of millions of
// events.
type Recorder struct {
	Events []Event
}

// EmitBlock appends every event of the block, stretch rows expanded.
func (r *Recorder) EmitBlock(b *Block) { r.Events = b.AppendEvents(r.Events) }
