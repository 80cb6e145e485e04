package trace

import (
	"fmt"
	"testing"
	"testing/quick"
)

// mkEvents derives a deterministic pseudo-random event stream from a byte
// seed, covering every kind and flag combination the producers emit.
func mkEvents(seed []byte) []Event {
	evs := make([]Event, len(seed))
	for i, b := range seed {
		evs[i] = Event{
			PC:    uint32(b) * 4,
			Addr:  uint32(b) * 16,
			Kind:  Kind(int(b) % numKinds),
			Flags: Flags(b >> 5),
		}
	}
	return evs
}

func TestBlockAppendRoundTrip(t *testing.T) {
	var b Block
	evs := mkEvents([]byte{0, 1, 7, 42, 200, 255})
	for _, e := range evs {
		b.Append(e)
	}
	if b.N != len(evs) || b.Insts != len(evs) {
		t.Fatalf("N = %d, Insts = %d, want %d", b.N, b.Insts, len(evs))
	}
	for i, e := range b.AppendEvents(nil) {
		if e != evs[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, evs[i])
		}
	}
	if b.Full() {
		t.Error("block of 6 events must not be full")
	}
	b.Reset()
	if b.N != 0 || b.Insts != 0 {
		t.Errorf("Reset left N = %d, Insts = %d", b.N, b.Insts)
	}
}

func TestBlockFullAtCap(t *testing.T) {
	var b Block
	for i := 0; i < BlockCap; i++ {
		b.Append(Event{PC: uint32(i)})
	}
	if !b.Full() {
		t.Fatalf("block with %d events must be full", BlockCap)
	}
}

// TestBlockSinksMatchPerEvent is the block-path equivalence property: for
// any event sequence, cut into blocks wherever the seed says and wherever
// a block fills, a Recorder receives exactly the sequence, in order, and
// a Counter recounting what it received matches one counting the
// sequence event by event.
func TestBlockSinksMatchPerEvent(t *testing.T) {
	f := func(seed []byte) bool {
		evs := mkEvents(seed)
		var perEvent, blocked Counter
		var rec Recorder
		var b Block
		for i, e := range evs {
			perEvent.Emit(e)
			b.Append(e)
			if b.Full() || seed[i]%7 == 0 {
				rec.EmitBlock(&b)
				b.Reset()
			}
		}
		if b.N > 0 {
			rec.EmitBlock(&b)
		}
		for _, e := range rec.Events {
			blocked.Emit(e)
		}
		if perEvent != blocked || len(rec.Events) != len(evs) {
			return false
		}
		for i := range evs {
			if rec.Events[i] != evs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMultiEmitBlockFansInOrder checks that a Multi hands each block to
// every member in fan order.
func TestMultiEmitBlockFansInOrder(t *testing.T) {
	var rec Recorder
	var order []string
	m := Multi{tap{"first", &order}, &rec, tap{"last", &order}}
	var b Block
	b.Append(Event{Kind: Load, PC: 8})
	b.Append(Event{Kind: Store, PC: 12})
	m.EmitBlock(&b)
	if len(rec.Events) != 2 {
		t.Errorf("recorder saw %d events, want 2", len(rec.Events))
	}
	want := []string{"first:8", "first:12", "last:8", "last:12"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("fan order = %v, want %v", order, want)
	}
}

func TestBatcherFlushReasons(t *testing.T) {
	var rec Recorder
	ba := NewBatcher(&rec)
	// Fill one block exactly, plus a partial tail.
	for i := 0; i < BlockCap+10; i++ {
		ba.Append(Event{PC: uint32(i)})
	}
	if !ba.Pending() {
		t.Error("10 buffered events must report as pending")
	}
	ba.Flush(FlushAttr)
	ba.Flush(FlushFinal) // empty: must not produce a block
	st := ba.Stats()
	want := BatchStats{Events: BlockCap + 10, Blocks: 2, FlushFill: 1, FlushAttr: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if st.Flushes() != st.Blocks {
		t.Errorf("flushes %d != blocks %d", st.Flushes(), st.Blocks)
	}
	if len(rec.Events) != BlockCap+10 {
		t.Errorf("sink saw %d events, want %d", len(rec.Events), BlockCap+10)
	}
}

// TestBatcherFullBlockWaitsForNextRow: a full block is delivered as a
// fill only when another row comes; a flush of another reason first takes
// it, so that cut lands at the same instruction however the rows fill.
func TestBatcherFullBlockWaitsForNextRow(t *testing.T) {
	var rec Recorder
	ba := NewBatcher(&rec)
	for i := 0; i < BlockCap; i++ {
		ba.Append(Event{PC: uint32(i)})
	}
	if len(rec.Events) != 0 {
		t.Fatalf("a full block was delivered before the next row")
	}
	ba.Flush(FlushAttr)
	want := BatchStats{Events: BlockCap, Blocks: 1, FlushAttr: 1}
	if st := ba.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// stretchEvents is the documented meaning of a stretch row (see Block),
// written out instruction by instruction.
func stretchEvents(s Stretch) []Event {
	evs := make([]Event, s.Len)
	for k := range evs {
		e := Event{PC: s.PC + uint32(k)*4, Kind: Int}
		if s.Short>>k&1 != 0 {
			e.Kind = ShortInt
		}
		if s.Dep>>k&1 != 0 {
			e.Flags = FlagDep
		}
		if s.Branch && k == s.Len-1 {
			e.Kind, e.Addr = Branch, s.Target
			if s.Taken {
				e.Flags |= FlagTaken
			}
		}
		evs[k] = e
	}
	return evs
}

// TestBatcherAppendStretchMatchesAppends: stretch rows deliver, expanded,
// the events per-instruction Appends deliver, in the same order and
// instruction count, through block fills and on ring blocks dirtied with
// rows of both shapes first.  Only the rows and the blocks are fewer.
func TestBatcherAppendStretchMatchesAppends(t *testing.T) {
	var rows, each Recorder
	a, b := NewBatcher(&rows), NewBatcher(&each)
	seed := make([]byte, batchRing*BlockCap)
	for i := range seed {
		seed[i] = byte(i*37 + 1)
	}
	for i, e := range mkEvents(seed) {
		if i%3 == 0 {
			s := Stretch{PC: e.PC, Len: i%MaxStretch + 1, Short: uint32(i) * 0x9e3779b9,
				Dep: uint32(i) * 0x85ebca6b, Branch: i%2 == 0, Target: e.Addr, Taken: i%4 == 0}
			if s.Branch {
				s.Short &^= 1 << (s.Len - 1)
			}
			s.Short &= 1<<s.Len - 1
			s.Dep &= 1<<s.Len - 1
			a.AppendStretch(s)
			for _, e := range stretchEvents(s) {
				b.Append(e)
			}
			continue
		}
		a.Append(e)
		b.Append(e)
	}
	pc := uint32(0x40_0000)
	for i := 0; i < 3*BlockCap; i++ {
		n := i%MaxStretch + 1
		s := Stretch{PC: pc, Len: n, Short: uint32(i*0x45d9f3b) & (1<<n - 1)}
		s.Dep = s.Short << 1 & (1<<n - 1)
		if i%5 != 0 {
			s.Short &^= 1 << (n - 1)
			s.Branch, s.Target, s.Taken = true, pc-uint32(i%7)*4, i%3 == 0
		}
		a.AppendStretch(s)
		for _, e := range stretchEvents(s) {
			b.Append(e)
		}
		if i%1000 == 999 {
			a.Append(Event{PC: 0x1000, Addr: 0x2000, Kind: Load, Flags: FlagDep})
			b.Append(Event{PC: 0x1000, Addr: 0x2000, Kind: Load, Flags: FlagDep})
		}
		pc += uint32(n) * 4
	}
	a.Flush(FlushFinal)
	b.Flush(FlushFinal)
	sa, sb := a.Stats(), b.Stats()
	if sa.Events != sb.Events || sa.FlushFinal != 1 || sb.FlushFinal != 1 || sa.FlushAttr != 0 {
		t.Fatalf("AppendStretch stats %+v, Appends %+v", sa, sb)
	}
	if sa.Blocks >= sb.Blocks {
		t.Errorf("stretch rows took %d blocks, per-instruction rows %d", sa.Blocks, sb.Blocks)
	}
	if len(rows.Events) != len(each.Events) {
		t.Fatalf("AppendStretch delivered %d events, Appends %d", len(rows.Events), len(each.Events))
	}
	for i := range rows.Events {
		if rows.Events[i] != each.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, rows.Events[i], each.Events[i])
		}
	}
}

func TestBatcherNilSinkDiscards(t *testing.T) {
	ba := NewBatcher(nil)
	ba.Append(Event{})
	ba.Flush(FlushFinal) // must not panic
	if st := ba.Stats(); st.Events != 1 || st.Blocks != 1 {
		t.Errorf("stats = %+v, want 1 event in 1 block", st)
	}
}

func TestBatchStatsAccounting(t *testing.T) {
	var s BatchStats
	if s.EventsPerBlock() != 0 {
		t.Error("empty stats must report 0 events/block")
	}
	s.Add(BatchStats{Events: 100, Blocks: 4, FlushFill: 3, FlushFinal: 1})
	s.Add(BatchStats{Events: 20, Blocks: 1, FlushAttr: 1})
	if s.Events != 120 || s.Blocks != 5 || s.Flushes() != 5 {
		t.Errorf("merged stats wrong: %+v", s)
	}
	if got := s.EventsPerBlock(); got != 24 {
		t.Errorf("events/block = %g, want 24", got)
	}
}

func TestCombineCollapses(t *testing.T) {
	var c, rec Recorder
	if got := Combine(); got != Discard {
		t.Errorf("Combine() = %T, want Discard", got)
	}
	if got := Combine(nil, Discard, nil); got != Discard {
		t.Errorf("Combine(nil, Discard) = %T, want Discard", got)
	}
	if got := Combine(nil, &c, Discard); got != &c {
		t.Errorf("Combine with one live sink must return it unwrapped, got %T", got)
	}
	m, ok := Combine(&c, &rec).(Multi)
	if !ok || len(m) != 2 {
		t.Fatalf("Combine with two sinks = %T, want Multi of 2", m)
	}
	if m[0] != Sink(&c) || m[1] != Sink(&rec) {
		t.Error("Combine must preserve fan order")
	}
}
