package trace

import "sync/atomic"

// batchRing is the number of blocks a Batcher rotates through.  Inline
// delivery needs only one.  A delivery goroutine owns each block handed to
// it until the sink has finished with it, so the ring is how far the
// producer can fill ahead of the simulators before it waits for a block
// to come back.
const batchRing = 4

// Batcher accumulates rows into a reusable ring of Blocks and delivers
// full blocks to its sink.  It is the shared engine behind
// the batching producers (atom.Probe, mipsi.Native).  Blocks are allocated
// lazily, so an idle producer pays nothing.
//
// Delivery is inline, on the producer's goroutine, unless the batcher has
// Slots to borrow from (BorrowFrom).  Then at each fill flush it tries to
// borrow a slot an idle worker lent, and while it holds one a delivery
// goroutine runs the sink beside the producer: full blocks pass to it
// through the ring, in stream order, without a copy.  A final flush is a
// barrier that returns the slot.
type Batcher struct {
	sink  Sink
	ring  [batchRing]*Block
	idx   int
	blk   *Block
	stats BatchStats

	// slots lends the batcher idle worker slots (nil: always inline); d
	// is the delivery goroutine running on a borrowed one, nil while
	// delivery is inline.
	slots *Slots
	d     *delivery
}

// NewBatcher returns a batcher delivering to sink (Discard when nil).
func NewBatcher(sink Sink) *Batcher {
	if sink == nil {
		sink = Discard
	}
	return &Batcher{sink: sink}
}

// BorrowFrom lets the batcher run its sink on a delivery goroutine while
// it holds a slot borrowed from s; nil keeps delivery inline.  The sink
// then runs on another goroutine than the producer's, so it must not read
// producer state.  Call it before the first row.
func (t *Batcher) BorrowFrom(s *Slots) { t.slots = s }

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
// advances to the next ring slot.  A fill flush first tries to borrow a
// slot for a delivery goroutine, or gives a recalled one back.  A final
// flush returns only once the sink has consumed every block, and ends
// the delivery goroutine; a sink panic on that goroutine is raised again
// here, on the producer's.
func (t *Batcher) Flush(reason FlushReason) {
	b := t.blk
	if b == nil || b.N == 0 {
		if reason == FlushFinal && t.d != nil {
			t.stop(false)
		}
		return
	}
	b.Reason = reason
	t.stats.count(b)
	if t.d == nil && reason == FlushFill && t.slots.TryBorrow() {
		t.d = startDelivery(t.sink)
	}
	if t.d == nil {
		t.sink.EmitBlock(b)
	} else {
		t.d.handoff(b)
		t.stats.Handoffs++
		if reason == FlushFinal {
			t.stop(false)
		} else if reason == FlushFill && t.slots.Recall() {
			t.stop(true)
		}
	}
	t.idx = (t.idx + 1) % batchRing
	t.blk = t.next()
}

// next returns the current ring slot, reset, once the delivery goroutine
// (if any) has handed it back.
func (t *Batcher) next() *Block {
	if d := t.d; d != nil {
		for d.inflight == batchRing {
			select {
			case <-d.free:
				d.inflight--
			case <-d.done:
				t.stop(false) // the sink panicked: raise it here
			}
		}
	}
	b := t.ring[t.idx]
	if b == nil {
		b = &Block{}
		t.ring[t.idx] = b
	}
	b.Reset()
	t.blk = b
	return b
}

// stop ends the delivery goroutine once it has consumed every block
// handed to it, and gives its slot back to the pool unless the pool
// recalled it already.  If the sink panicked on the goroutine, the panic
// is raised again here, and the batcher drops whatever comes after.
func (t *Batcher) stop(recalled bool) {
	d := t.d
	t.d = nil
	close(d.full)
	<-d.done
	if !recalled {
		t.slots.Return()
	}
	if d.panicked != nil {
		t.sink, t.blk = Discard, nil
		panic(d.panicked)
	}
}

// Stats returns the accumulated batch accounting.
func (t *Batcher) Stats() BatchStats { return t.stats }

// delivery is one delivery goroutine and the producer's side of its
// handoff.  Blocks travel in full, in stream order; a token on free
// returns the oldest one to the producer.
type delivery struct {
	full     chan *Block
	free     chan struct{}
	done     chan struct{} // closed when the goroutine exits
	inflight int           // blocks handed off and not yet taken back (producer-owned)
	panicked any           // the sink's panic, if any; read after done
}

// startDelivery starts a goroutine running sink over the blocks handed to
// it.  It inherits the producer's pprof labels.
func startDelivery(sink Sink) *delivery {
	// Both buffers hold the whole ring: at most batchRing blocks are out
	// at once, so neither side ever blocks on a send.
	d := &delivery{
		full: make(chan *Block, batchRing),
		free: make(chan struct{}, batchRing),
		done: make(chan struct{}),
	}
	go d.run(sink)
	return d
}

func (d *delivery) run(sink Sink) {
	defer close(d.done)
	defer func() { d.panicked = recover() }()
	for b := range d.full {
		sink.EmitBlock(b)
		d.free <- struct{}{}
	}
}

// handoff passes b to the goroutine, which owns it until its token comes
// back on free.
func (d *delivery) handoff(b *Block) {
	d.full <- b
	d.inflight++
}

// Slots counts the worker slots a pool lends to delivery goroutines.  A
// worker with nothing to do lends its slot (Lend) and takes it back
// (Reclaim) when work arrives, without waiting: a borrower the pool can
// no longer cover gives its slot back at its next fill flush (Recall).
// The pool never lends more slots than its workers lent.  The zero value
// has no slot to lend; a nil *Slots never lends.
type Slots struct {
	// free is the lent slots no batcher holds.  Below zero, workers have
	// reclaimed slots that batchers still hold.
	free atomic.Int64
}

// Lend adds an idle worker's slot to the pool.
func (s *Slots) Lend() { s.free.Add(1) }

// Reclaim takes a lent slot back for its worker.
func (s *Slots) Reclaim() { s.free.Add(-1) }

// Idle reports how many lent slots no batcher holds.
func (s *Slots) Idle() int { return int(s.free.Load()) }

// TryBorrow takes a lent slot if one is free.
func (s *Slots) TryBorrow() bool {
	if s == nil {
		return false
	}
	for {
		f := s.free.Load()
		if f <= 0 {
			return false
		}
		if s.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}

// Return gives a borrowed slot back.
func (s *Slots) Return() { s.free.Add(1) }

// Recall reports whether the caller must give its borrowed slot up
// because a worker reclaimed one, and if so takes it back.
func (s *Slots) Recall() bool {
	if s == nil {
		return false
	}
	for {
		f := s.free.Load()
		if f >= 0 {
			return false
		}
		if s.free.CompareAndSwap(f, f+1) {
			return true
		}
	}
}
