package trace

// This file is the batched event pipeline.  A full interp-lab run emits
// on the order of 10^9 Events.  Producers count them as they emit them
// (in a Counter), so only the simulating sinks — the pipeline and the cache
// sweep — need the events themselves, and a run without one builds no
// block at all.  For the runs that have one, blocks amortize the cost of
// delivery: the producer accumulates rows into a struct-of-arrays Block
// and hands whole blocks to the sinks, so the per-event work collapses to
// array writes and the per-sink interface dispatch happens once per a few
// thousand rows.  A stretch row carries a whole run of straight-line
// integer instructions and the branch that ends it, so most instructions
// cost neither the producer nor a simulator a row of their own.
//
// The struct-of-arrays layout (parallel columns rather than an []Event)
// keeps each consumer's inner loop touching only the columns it needs: a
// cache sweep streams the PC and Len columns without dragging the rest
// through the data cache.

// BlockCap is the row capacity of one Block.  4096 rows keep a block
// around 76KB — inside L2 — while making the per-block dispatch overhead
// negligible.
const BlockCap = 4096

// MaxStretch is the most instructions one stretch row holds: one bit of
// each of its 32-bit masks per instruction.
const MaxStretch = 32

// FlushReason records why a block was handed to the sink; the telemetry
// layer surfaces the per-reason counts (trace.batch.* counters and the
// manifest batch field).
type FlushReason uint8

const (
	// FlushFill means the block was full when the next row came.
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

// Block is a struct-of-arrays batch of rows: element i of each array is
// one row, N counts the valid prefix.  A row is one event, or a stretch:
//
//   - A plain row (Len 0) is the event {PC, Addr, Kind, Flags}.
//   - A stretch row (Len > 0) is Len instructions at PC, PC+4, ..., not
//     wrapping past the top of the address space: Int and ShortInt
//     instructions, bit k of Short marking instruction k a ShortInt and
//     bit k of Dep giving it FlagDep.  When Kind is Branch, the last of
//     them is a conditional branch to Addr, taken when Flags holds
//     FlagTaken, and Short has no bit for it; when Kind is Int, no branch
//     closes the stretch (Addr and Flags are 0).
//
// Stretch rows carry a branch-to-branch walk of the probe whole, so a
// simulator can charge it in one step.  AppendEvents expands any block
// into its events.  Blocks are reused — a sink must finish with the block
// before EmitBlock returns and must not retain it.
type Block struct {
	PC    [BlockCap]uint32
	Addr  [BlockCap]uint32
	Kind  [BlockCap]Kind
	Flags [BlockCap]Flags
	Len   [BlockCap]uint8
	Short [BlockCap]uint32
	Dep   [BlockCap]uint32

	// N is the number of valid rows, Insts the instructions they hold.
	N     int
	Insts int
	// Reason records why the producer flushed this block.
	Reason FlushReason
}

// Stretch is one stretch row's contents (see Block): Len instructions,
// 1 to MaxStretch, from PC, the last a conditional branch to Target when
// Branch is set.
type Stretch struct {
	PC     uint32
	Len    int
	Short  uint32
	Dep    uint32
	Branch bool
	Target uint32
	Taken  bool
}

// Append adds e as a plain row; the caller must ensure the block is not
// full.
func (b *Block) Append(e Event) {
	b.PC[b.N] = e.PC
	b.Addr[b.N] = e.Addr
	b.Kind[b.N] = e.Kind
	b.Flags[b.N] = e.Flags
	b.Len[b.N] = 0
	b.N++
	b.Insts++
}

// AppendStretch adds s as a stretch row; the caller must ensure the block
// is not full.
func (b *Block) AppendStretch(s Stretch) {
	i := b.N
	b.PC[i] = s.PC
	b.Len[i] = uint8(s.Len)
	b.Short[i] = s.Short
	b.Dep[i] = s.Dep
	b.Kind[i], b.Addr[i], b.Flags[i] = Int, 0, 0
	if s.Branch {
		b.Kind[i], b.Addr[i] = Branch, s.Target
		if s.Taken {
			b.Flags[i] = FlagTaken
		}
	}
	b.N++
	b.Insts += s.Len
}

// Full reports whether the block is at capacity.
func (b *Block) Full() bool { return b.N == BlockCap }

// Reset empties the block for reuse.
func (b *Block) Reset() { b.N, b.Insts = 0, 0 }

// AppendEvents appends the block's instructions to dst as events, one per
// instruction in program order, stretch rows expanded, and returns the
// extended slice.  It is the one way to read a block event by event.
func (b *Block) AppendEvents(dst []Event) []Event {
	for i := 0; i < b.N; i++ {
		n := int(b.Len[i])
		if n == 0 {
			dst = append(dst, Event{PC: b.PC[i], Addr: b.Addr[i], Kind: b.Kind[i], Flags: b.Flags[i]})
			continue
		}
		for k := 0; k < n; k++ {
			e := Event{PC: b.PC[i] + uint32(k)*4, Kind: Int}
			if b.Short[i]>>k&1 != 0 {
				e.Kind = ShortInt
			}
			if b.Dep[i]>>k&1 != 0 {
				e.Flags = FlagDep
			}
			dst = append(dst, e)
		}
		if b.Kind[i] == Branch {
			e := &dst[len(dst)-1]
			e.Kind, e.Addr, e.Flags = Branch, b.Addr[i], e.Flags|b.Flags[i]
		}
	}
	return dst
}

// BatchStats accounts a producer's batching behavior: how many events
// (instructions) traveled in how many blocks, and what triggered each
// flush.  The JSON
// tags are the manifest schema's "batch" object (docs/OBSERVABILITY.md).
type BatchStats struct {
	Events     uint64 `json:"events"`
	Blocks     uint64 `json:"blocks"`
	FlushFill  uint64 `json:"flush_fill,omitempty"`
	FlushAttr  uint64 `json:"flush_attr,omitempty"`
	FlushFinal uint64 `json:"flush_final,omitempty"`
	// Handoffs counts the blocks a delivery goroutine took (see Slots).
	// It depends on what the other workers were doing, not on the
	// stream, so it stays out of the manifest and the cache.
	Handoffs uint64 `json:"-"`
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
	s.Handoffs += other.Handoffs
}

// count tallies one flushed block.
func (s *BatchStats) count(b *Block) {
	s.Events += uint64(b.Insts)
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
