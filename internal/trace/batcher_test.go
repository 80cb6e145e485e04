package trace

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockSum hashes every column of a block's valid rows, its counts and its
// flush reason.
func blockSum(b *Block) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	for i := 0; i < b.N; i++ {
		put(b.PC[i])
		put(b.Addr[i])
		put(uint32(b.Kind[i]) | uint32(b.Flags[i])<<8 | uint32(b.Len[i])<<16)
		put(b.Short[i])
		put(b.Dep[i])
	}
	put(uint32(b.N))
	put(uint32(b.Insts))
	put(uint32(b.Reason))
	return h.Sum64()
}

// onDeliveryGoroutine reports whether the caller runs on a delivery
// goroutine.
func onDeliveryGoroutine() bool {
	buf := make([]byte, 4096)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*delivery).run")
}

// checkSink checksums each block on entry, yields, and checks the sum
// again before it returns, so a producer that wrote into a block it had
// handed off would show.  It records the events and cuts it received.
type checkSink struct {
	t       *testing.T
	events  []Event
	reasons []FlushReason
	async   int // blocks received on a delivery goroutine
}

func (s *checkSink) EmitBlock(b *Block) {
	sum := blockSum(b)
	runtime.Gosched()
	time.Sleep(10 * time.Microsecond)
	s.events = b.AppendEvents(s.events)
	s.reasons = append(s.reasons, b.Reason)
	if onDeliveryGoroutine() {
		s.async++
	}
	if blockSum(b) != sum {
		s.t.Errorf("block %d changed while the sink held it", len(s.reasons))
	}
}

// feed writes a pseudo-random stream of plain and stretch rows into t,
// cutting it with attr flushes and final flushes where rng says, ends it
// with a final flush, and returns the events it wrote.
func feed(t *Batcher, rng *rand.Rand, rows int) (want []Event) {
	for i := 0; i < rows; i++ {
		switch r := rng.Intn(100); {
		case r < 40:
			s := Stretch{PC: uint32(rng.Intn(1<<20)) * 4, Len: 1 + rng.Intn(MaxStretch),
				Short: rng.Uint32(), Dep: rng.Uint32(), Branch: rng.Intn(2) == 0}
			if s.Len < MaxStretch {
				s.Short &= 1<<s.Len - 1
				s.Dep &= 1<<s.Len - 1
			}
			if s.Branch {
				s.Short &^= 1 << (s.Len - 1)
				s.Target, s.Taken = uint32(rng.Intn(1<<20))*4, rng.Intn(2) == 0
			}
			t.AppendStretch(s)
			want = append(want, stretchEvents(s)...)
		default:
			e := Event{PC: uint32(rng.Intn(1<<20)) * 4, Addr: rng.Uint32(), Kind: Kind(rng.Intn(numKinds)), Flags: Flags(rng.Intn(8))}
			t.Append(e)
			want = append(want, e)
		}
		switch r := rng.Intn(20000); {
		case r < 3:
			t.Flush(FlushAttr)
		case r < 4:
			t.Flush(FlushFinal)
		}
	}
	t.Flush(FlushFinal)
	return want
}

// TestDeliveryGoroutineKeepsStream forces delivery onto the goroutine
// through a pool with one idle slot: the sink must see every block in
// stream order and unchanged, across ring wraps and attr and final cuts,
// and the pool must get its slot back at every final flush.
func TestDeliveryGoroutineKeepsStream(t *testing.T) {
	var slots Slots
	slots.Lend()
	sink := &checkSink{t: t}
	b := NewBatcher(sink)
	b.BorrowFrom(&slots)
	base := runtime.NumGoroutine()
	want := feed(b, rand.New(rand.NewSource(1)), 30*BlockCap)

	if len(sink.events) != len(want) {
		t.Fatalf("sink saw %d events, want %d", len(sink.events), len(want))
	}
	for i := range want {
		if sink.events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, sink.events[i], want[i])
		}
	}
	st := b.Stats()
	if st.Handoffs == 0 || sink.async != int(st.Handoffs) {
		t.Errorf("handoffs = %d, blocks the sink took on the delivery goroutine = %d: want equal and nonzero", st.Handoffs, sink.async)
	}
	if st.Blocks != uint64(len(sink.reasons)) || st.FlushAttr == 0 || st.FlushFinal < 2 {
		t.Errorf("stats %+v over %d delivered blocks: want every block delivered and attr and final cuts", st, len(sink.reasons))
	}
	if last := sink.reasons[len(sink.reasons)-1]; last != FlushFinal {
		t.Errorf("last block's reason = %v, want final", last)
	}
	if got := slots.Idle(); got != 1 {
		t.Errorf("idle slots after the final flush = %d, want 1", got)
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeliveryWithoutSlotsIsInline: a batcher with no pool, or a pool
// with no idle slot, never starts a goroutine.
func TestDeliveryWithoutSlotsIsInline(t *testing.T) {
	for _, slots := range []*Slots{nil, new(Slots)} {
		sink := &checkSink{t: t}
		b := NewBatcher(sink)
		b.BorrowFrom(slots)
		feed(b, rand.New(rand.NewSource(2)), 10*BlockCap)
		if st := b.Stats(); st.Handoffs != 0 || sink.async != 0 {
			t.Errorf("pool %v: %d handoffs, %d blocks off the producer's goroutine, want none", slots, st.Handoffs, sink.async)
		}
	}
}

// TestRecalledSlotGoesBack: once its worker reclaims the lent slot, the
// borrower gives it back at its next fill flush and delivers inline,
// and borrows again when a slot is lent again.
func TestRecalledSlotGoesBack(t *testing.T) {
	var slots Slots
	slots.Lend()
	sink := &checkSink{t: t}
	b := NewBatcher(sink)
	b.BorrowFrom(&slots)
	var want []Event
	emit := func(n int) {
		for i := 0; i < n; i++ {
			e := Event{PC: uint32(len(want)) * 4}
			b.Append(e)
			want = append(want, e)
		}
	}
	emit(2*BlockCap + 1)
	if b.d == nil || slots.Idle() != 0 {
		t.Fatalf("no delivery goroutine after two fill flushes (idle %d)", slots.Idle())
	}
	slots.Reclaim()
	emit(BlockCap)
	if b.d != nil || slots.Idle() != 0 {
		t.Fatalf("borrower kept a reclaimed slot (idle %d)", slots.Idle())
	}
	handoffs := b.Stats().Handoffs
	emit(2 * BlockCap)
	if b.Stats().Handoffs != handoffs {
		t.Error("a block was handed off with no slot lent")
	}
	slots.Lend()
	emit(2 * BlockCap)
	b.Flush(FlushFinal)
	if b.Stats().Handoffs == handoffs {
		t.Error("no block was handed off after a slot was lent again")
	}
	if len(sink.events) != len(want) {
		t.Fatalf("sink saw %d events, want %d", len(sink.events), len(want))
	}
	for i := range want {
		if sink.events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, sink.events[i], want[i])
		}
	}
	if got := slots.Idle(); got != 1 {
		t.Errorf("idle slots = %d, want 1", got)
	}
}

// panicSink panics on its second block.
type panicSink struct{ n int }

func (s *panicSink) EmitBlock(*Block) {
	if s.n++; s.n == 2 {
		panic("synthetic sink panic")
	}
}

// TestSinkPanicRaisedOnProducer: a sink panic on the delivery goroutine
// is raised again on the producer's goroutine, whose stream then stops;
// the goroutine ends and the slot goes back, and a later final flush
// delivers nothing.
func TestSinkPanicRaisedOnProducer(t *testing.T) {
	var slots Slots
	slots.Lend()
	b := NewBatcher(&panicSink{})
	b.BorrowFrom(&slots)
	base := runtime.NumGoroutine()
	got := func() (rec any) {
		defer func() { rec = recover() }()
		for i := 0; i < 50*BlockCap; i++ {
			b.Append(Event{PC: uint32(i) * 4})
		}
		b.Flush(FlushFinal)
		return nil
	}()
	if got != "synthetic sink panic" {
		t.Fatalf("producer recovered %v, want the sink's panic", got)
	}
	b.Flush(FlushFinal)
	if idle := slots.Idle(); idle != 1 {
		t.Errorf("idle slots after the panic = %d, want 1", idle)
	}
	waitGoroutines(t, base)
}

// TestSlotsNeverLendMoreThanIdle pins the pool's arithmetic: a borrow
// succeeds only while a lent slot is free, a reclaim recalls exactly one
// borrower, and under concurrent lending and borrowing the books balance.
func TestSlotsNeverLendMoreThanIdle(t *testing.T) {
	var s Slots
	if s.TryBorrow() {
		t.Fatal("borrowed from a pool no worker lent to")
	}
	s.Lend()
	s.Lend()
	if !s.TryBorrow() || !s.TryBorrow() {
		t.Fatal("could not borrow two lent slots")
	}
	if s.TryBorrow() {
		t.Fatal("borrowed a third slot from two idle workers")
	}
	if s.Recall() {
		t.Fatal("recalled a slot no worker reclaimed")
	}
	s.Reclaim()
	if !s.Recall() {
		t.Fatal("a reclaimed slot was not recalled")
	}
	if s.Recall() || s.TryBorrow() {
		t.Fatal("one reclaim recalled twice, or lent a slot back")
	}
	s.Return()
	if s.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", s.Idle())
	}
	s.Reclaim()

	// Workers lend and reclaim while borrowers borrow, hold, and give
	// back when recalled or done.  The model counts under mu what the
	// pool was told: every borrow must find a lent slot no one holds.
	var (
		mu         sync.Mutex
		lent, held int
		wg         sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mu.Lock()
				s.Lend()
				lent++
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				s.Reclaim()
				lent--
				mu.Unlock()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mu.Lock()
				ok := s.TryBorrow()
				if ok {
					held++
					if held > lent {
						t.Errorf("borrow %d: %d slots held, %d lent", i, held, lent)
					}
				}
				mu.Unlock()
				if !ok {
					runtime.Gosched()
					continue
				}
				runtime.Gosched()
				mu.Lock()
				if !s.Recall() {
					s.Return()
				}
				held--
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if s.Idle() != 0 {
		t.Errorf("idle = %d after every worker reclaimed and every borrower gave back, want 0", s.Idle())
	}
}
