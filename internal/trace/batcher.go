package trace

// batchRing is the number of blocks a Batcher rotates through.  Delivery
// is synchronous, so one block would suffice functionally; a small ring
// means a sink that inspects a just-delivered block (debugging, tests)
// still sees intact data while the producer fills the next one.
const batchRing = 4

// Batcher accumulates rows into a reusable ring of Blocks and delivers
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

// Append buffers e as a plain row.
func (t *Batcher) Append(e Event) {
	b := t.blk
	if b == nil || b.N == BlockCap {
		b = t.room()
	}
	b.Append(e)
}

// AppendStretch buffers s as one stretch row (see Block).
func (t *Batcher) AppendStretch(s Stretch) {
	b := t.blk
	if b == nil || b.N == BlockCap {
		b = t.room()
	}
	b.AppendStretch(s)
}

// room is the appends' slow path: it allocates the first block, or
// delivers the full one with FlushFill, and returns the block to fill.  A
// full block waits for the next row, so an attr or final flush that comes
// first takes it: those cuts then fall at the same instruction wherever
// the rows split the stream.
func (t *Batcher) room() *Block {
	if t.blk == nil {
		return t.next()
	}
	t.Flush(FlushFill)
	return t.blk
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
