package trace

// batchRing is the number of blocks a Batcher rotates through.  Delivery
// is synchronous, so one block would suffice functionally; a small ring
// means a sink that inspects a just-delivered block (debugging, tests)
// still sees intact data while the producer fills the next one.
const batchRing = 4

// Batcher accumulates events into a reusable ring of Blocks and delivers
// full blocks to its sink.  It is the shared engine behind
// the batching producers (atom.Probe, mipsi.Native).  Blocks are allocated
// lazily, so an idle producer pays nothing.
type Batcher struct {
	sink  Sink
	ring  [batchRing]*Block
	idx   int
	blk   *Block
	stats BatchStats
}

// NewBatcher returns a batcher delivering to sink (Discard when nil).
func NewBatcher(sink Sink) *Batcher {
	if sink == nil {
		sink = Discard
	}
	return &Batcher{sink: sink}
}

// Append buffers e, flushing with FlushFill when the block fills.
func (t *Batcher) Append(e Event) {
	b := t.blk
	if b == nil {
		b = t.next()
	}
	b.Append(e)
	if b.N == BlockCap {
		t.Flush(FlushFill)
	}
}

// Pending reports whether buffered events await a flush.
func (t *Batcher) Pending() bool { return t.blk != nil && t.blk.N > 0 }

// Flush delivers the buffered events (if any) tagged with reason, then
// advances to the next ring slot.
func (t *Batcher) Flush(reason FlushReason) {
	b := t.blk
	if b == nil || b.N == 0 {
		return
	}
	b.Reason = reason
	t.stats.count(b)
	t.sink.EmitBlock(b)
	t.idx = (t.idx + 1) % batchRing
	t.blk = t.next()
}

// next returns the current ring slot, allocating and resetting it.
func (t *Batcher) next() *Block {
	b := t.ring[t.idx]
	if b == nil {
		b = &Block{}
		t.ring[t.idx] = b
	}
	b.Reset()
	t.blk = b
	return b
}

// Stats returns the accumulated batch accounting.
func (t *Batcher) Stats() BatchStats { return t.stats }

// AppendInts buffers k Int events at pc, pc+4, ... with Addr 0, the first
// carrying flags and the rest none: the events k Appends would buffer,
// split at BlockCap and flushed with FlushFill where those would flush.
func (t *Batcher) AppendInts(pc uint32, k int, flags Flags) {
	for k > 0 {
		b := t.blk
		if b == nil {
			b = t.next()
		}
		lo := b.N
		hi := min(lo+k, BlockCap)
		// Blocks are reused: every column of every row is written.
		for i := lo; i < hi; i++ {
			b.PC[i] = pc
			b.Addr[i] = 0
			b.Kind[i] = Int
			b.Flags[i] = 0
			pc += 4
		}
		b.Flags[lo] = flags
		flags = 0
		b.N = hi
		k -= hi - lo
		if hi == BlockCap {
			t.Flush(FlushFill)
		}
	}
}
