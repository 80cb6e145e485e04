package alphasim

import (
	"testing"

	"interplab/internal/trace"
)

// row is one block row of a packed stream: a stretch, or the plain event
// e.  end is the index of the row's last event in the stream.
type row struct {
	stretch bool
	s       trace.Stretch
	e       trace.Event
	end     int
}

// packable reports whether e can sit in a stretch row: an Int or ShortInt
// with no address and no flag but FlagDep, or a conditional branch, which
// closes one.
func packable(e trace.Event) bool {
	switch e.Kind {
	case trace.Int, trace.ShortInt:
		return e.Addr == 0 && e.Flags&^trace.FlagDep == 0
	case trace.Branch:
		return e.Flags&^(trace.FlagDep|trace.FlagTaken) == 0
	}
	return false
}

// packStretches packs any stream into the rows a streaming probe writes:
// each run of Int and ShortInt events at consecutive PCs, with the
// conditional branch at the next PC that ends it, becomes one stretch row
// of at most trace.MaxStretch instructions, and every other event a plain
// row.  A run also ends at an event whose index is in cuts, so that every
// cut falls between rows.
func packStretches(events []trace.Event, cuts map[int]bool) []row {
	var rows []row
	for i := 0; i < len(events); {
		e := events[i]
		if !packable(e) {
			rows = append(rows, row{e: e, end: i})
			i++
			continue
		}
		s := trace.Stretch{PC: e.PC}
		for {
			e := events[i]
			if e.Flags&trace.FlagDep != 0 {
				s.Dep |= 1 << s.Len
			}
			switch e.Kind {
			case trace.ShortInt:
				s.Short |= 1 << s.Len
			case trace.Branch:
				s.Branch, s.Target, s.Taken = true, e.Addr, e.Taken()
			}
			s.Len++
			i++
			if s.Branch || s.Len == trace.MaxStretch || cuts[i-1] || i == len(events) {
				break
			}
			next := events[i]
			if !packable(next) || next.PC != e.PC+4 || e.PC+4 < e.PC {
				break
			}
		}
		rows = append(rows, row{stretch: true, s: s, end: i - 1})
	}
	return rows
}

// appendRow adds r to b.
func appendRow(b *trace.Block, r row) {
	if r.stretch {
		b.AppendStretch(r.s)
	} else {
		b.Append(r.e)
	}
}

// emitRows hands rows to s in blocks: one row per block when perRow, else
// blocks cut after each row that ends at a cut and wherever a block
// fills.
func emitRows(s trace.Sink, rows []row, cuts map[int]bool, perRow bool) {
	b := new(trace.Block)
	for _, r := range rows {
		appendRow(b, r)
		if perRow || b.Full() || cuts[r.end] {
			s.EmitBlock(b)
			b.Reset()
		}
	}
	if b.N > 0 {
		s.EmitBlock(b)
	}
}

// TestPackStretchesRoundTrip: the packed rows expand to the stream they
// were packed from, and they are fewer than its events on a stream of
// straight-line runs.
func TestPackStretchesRoundTrip(t *testing.T) {
	for _, data := range [][]byte{
		{0x3f, 0x80 | 3 | 8, 0x00, 0x00, 0x3f, 0x80 | 6, 0x00, 0x01, 0x05},
		{0x7f, 0x80 | 6 | 0x20, 0x00, 0x01, 0x80 | 1, 0x00, 0x02, 0x80 | 3 | 0x20, 0x00, 0x10, 0x47},
	} {
		events, cuts := decodeStream(data)
		rows := packStretches(events, cuts)
		var rec trace.Recorder
		emitRows(&rec, rows, cuts, false)
		if len(rec.Events) != len(events) {
			t.Fatalf("rows expand to %d events, want %d", len(rec.Events), len(events))
		}
		for i := range events {
			if rec.Events[i] != events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, rec.Events[i], events[i])
			}
		}
		if len(rows) >= len(events) {
			t.Errorf("%d rows for %d events", len(rows), len(events))
		}
	}
}
