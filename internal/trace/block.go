package trace

// This file is the batched event pipeline.  A full interp-lab run emits
// on the order of 10^9 Events.  Producers count them as they emit them
// (in a Counter), so only the simulating sinks — the pipeline and the cache
// sweep — need the events themselves, and a run without one builds no
// block at all.  For the runs that have one, blocks amortize the cost of
// delivery: the producer accumulates events into a struct-of-arrays Block
// and hands whole blocks to the sinks, so the per-event work collapses to
// array writes and the per-sink interface dispatch happens once per a few
// thousand events.
//
// The struct-of-arrays layout (parallel PC/Addr/Kind/Flags arrays rather
// than an []Event) keeps each consumer's inner loop touching only the
// columns it needs: a cache sweep streams the PC column without dragging
// the rest through the data cache.

// BlockCap is the event capacity of one Block.  4096 events keep a block
// around 40KB — comfortably inside L2 — while making the per-block
// dispatch overhead negligible.
const BlockCap = 4096

// FlushReason records why a block was handed to the sink; the telemetry
// layer surfaces the per-reason counts (trace.batch.* counters and the
// manifest batch field).
type FlushReason uint8

const (
	// FlushFill means the block reached BlockCap.
	FlushFill FlushReason = iota
	// FlushAttr means the producer's attribution state (phase, routine,
	// open command) was about to change and a sink that joins its own
	// callbacks to the attribution state (the pipeline's miss attribution)
	// requires blocks to be uniform under one state.
	FlushAttr
	// FlushFinal means the stream ended (end of run, or an explicit
	// flush before reading accumulated sink state).
	FlushFinal

	numFlushReasons = int(FlushFinal) + 1
)

var flushReasonNames = [numFlushReasons]string{"fill", "attr", "final"}

// String returns the reason label used in metrics and trace spans.
func (r FlushReason) String() string {
	if int(r) < numFlushReasons {
		return flushReasonNames[r]
	}
	return "invalid"
}

// Block is a struct-of-arrays batch of events: element i of each array is
// one event, N counts the valid prefix.  Blocks are reused — a sink must
// finish with the block before EmitBlock returns and must not retain it.
type Block struct {
	PC    [BlockCap]uint32
	Addr  [BlockCap]uint32
	Kind  [BlockCap]Kind
	Flags [BlockCap]Flags

	// N is the number of valid events.
	N int
	// Reason records why the producer flushed this block.
	Reason FlushReason
}

// Append adds e; the caller must ensure the block is not full.
func (b *Block) Append(e Event) {
	b.PC[b.N] = e.PC
	b.Addr[b.N] = e.Addr
	b.Kind[b.N] = e.Kind
	b.Flags[b.N] = e.Flags
	b.N++
}

// Full reports whether the block is at capacity.
func (b *Block) Full() bool { return b.N == BlockCap }

// Reset empties the block for reuse.
func (b *Block) Reset() { b.N = 0 }

// Event reconstructs element i as an Event value.
func (b *Block) Event(i int) Event {
	return Event{PC: b.PC[i], Addr: b.Addr[i], Kind: b.Kind[i], Flags: b.Flags[i]}
}

// BatchStats accounts a producer's batching behavior: how many events
// traveled in how many blocks, and what triggered each flush.  The JSON
// tags are the manifest schema's "batch" object (docs/OBSERVABILITY.md).
type BatchStats struct {
	Events     uint64 `json:"events"`
	Blocks     uint64 `json:"blocks"`
	FlushFill  uint64 `json:"flush_fill,omitempty"`
	FlushAttr  uint64 `json:"flush_attr,omitempty"`
	FlushFinal uint64 `json:"flush_final,omitempty"`
}

// Flushes returns the total flush count (== Blocks for a well-formed
// producer; kept separate so the identity is checkable).
func (s BatchStats) Flushes() uint64 { return s.FlushFill + s.FlushAttr + s.FlushFinal }

// EventsPerBlock returns the mean batch size.
func (s BatchStats) EventsPerBlock() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.Blocks)
}

// Add merges other into s.
func (s *BatchStats) Add(other BatchStats) {
	s.Events += other.Events
	s.Blocks += other.Blocks
	s.FlushFill += other.FlushFill
	s.FlushAttr += other.FlushAttr
	s.FlushFinal += other.FlushFinal
}

// count tallies one flushed block.
func (s *BatchStats) count(b *Block) {
	s.Events += uint64(b.N)
	s.Blocks++
	switch b.Reason {
	case FlushFill:
		s.FlushFill++
	case FlushAttr:
		s.FlushAttr++
	case FlushFinal:
		s.FlushFinal++
	}
}

// Combine builds the cheapest sink equivalent to fanning out over sinks in
// order: nil sinks and Discard drop out, zero remaining sinks collapse to
// Discard, one collapses to the sink itself (no fan-out loop), and only a
// genuine fan-out pays for a Multi.
func Combine(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s == nil || s == Discard {
			continue
		}
		kept = append(kept, s)
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return Multi(kept)
}
