package gfx

import (
	"testing"

	"interplab/internal/atom"
	"interplab/internal/trace"
)

func TestClearAndPlot(t *testing.T) {
	d := New(nil, nil, 16, 8)
	d.Clear(3)
	for _, p := range d.Pix {
		if p != 3 {
			t.Fatal("clear failed")
		}
	}
	d.Plot(2, 1, 9)
	if d.Pix[1*16+2] != 9 {
		t.Error("plot failed")
	}
	d.Plot(-1, 0, 9) // clipped, must not panic
	d.Plot(100, 100, 9)
}

func TestFillRectClipped(t *testing.T) {
	d := New(nil, nil, 10, 10)
	d.FillRect(-5, -5, 8, 8, 7)
	if d.Pix[0] != 7 || d.Pix[2*10+2] != 7 {
		t.Error("clipped fill missing pixels")
	}
	if d.Pix[3*10+3] != 0 {
		t.Error("fill overran")
	}
	d.FillRect(8, 8, 100, 100, 1)
	if d.Pix[9*10+9] != 1 {
		t.Error("corner fill failed")
	}
}

func TestLineEndpoints(t *testing.T) {
	d := New(nil, nil, 20, 20)
	d.Line(1, 1, 10, 7, 5)
	if d.Pix[1*20+1] != 5 || d.Pix[7*20+10] != 5 {
		t.Error("line endpoints not drawn")
	}
	// Steep and reversed lines.
	d.Line(15, 18, 15, 2, 6)
	if d.Pix[2*20+15] != 6 || d.Pix[18*20+15] != 6 {
		t.Error("vertical line failed")
	}
	// A line leaving the screen must clip, not panic.
	d.Line(-10, -10, 30, 30, 2)
}

func TestTextAndBlit(t *testing.T) {
	d := New(nil, nil, 64, 16)
	d.Text(1, 1, "ok", 4)
	found := false
	for _, p := range d.Pix {
		if p == 4 {
			found = true
			break
		}
	}
	if !found {
		t.Error("text drew nothing")
	}
	sprite := []byte{0, 1, 1, 0}
	d.Blit(5, 5, 2, 2, sprite)
	if d.Pix[5*64+6] != 1 || d.Pix[6*64+5] != 1 {
		t.Error("blit failed")
	}
	if d.Pix[5*64+5] == 1 {
		t.Error("transparent pixel drawn")
	}
}

func TestChecksumDeterministic(t *testing.T) {
	draw := func() uint32 {
		d := New(nil, nil, 32, 32)
		d.Clear(1)
		d.Line(0, 0, 31, 31, 2)
		d.FillRect(4, 4, 8, 8, 3)
		d.Text(2, 20, "x", 4)
		return d.Checksum()
	}
	if draw() != draw() {
		t.Error("checksum must be deterministic")
	}
	d := New(nil, nil, 32, 32)
	if d.Checksum() == func() uint32 { e := New(nil, nil, 32, 32); e.Clear(9); return e.Checksum() }() {
		t.Error("different pictures must differ")
	}
}

// recountSink is a block sink that recounts the stream it receives, one
// event at a time, into its Counter.
type recountSink struct{ trace.Counter }

func (r *recountSink) EmitBlock(b *trace.Block) {
	for _, e := range b.AppendEvents(nil) {
		r.Emit(e)
	}
}

func TestInstrumentedDrawingChargesNativeRegion(t *testing.T) {
	img := atom.NewImage()
	var c recountSink
	p := atom.NewProbe(img, &c)
	d := New(img, p, 64, 64)
	before := p.Total()
	d.FillRect(0, 0, 64, 64, 2)
	p.FlushEvents()
	cost := p.Total() - before
	// 4096 pixels at ~3/4 instruction per pixel plus overhead.
	if cost < 2000 || cost > 10000 {
		t.Errorf("fill cost = %d native instructions, implausible", cost)
	}
	st := p.Stats()
	nat, ok := st.Region("native")
	if !ok || nat.Instructions == 0 {
		t.Fatal("native region must be charged")
	}
	if c.Stores() == 0 {
		t.Error("framebuffer stores must be emitted")
	}
	// Instrumented and uninstrumented displays draw the same picture.
	e := New(nil, nil, 64, 64)
	e.FillRect(0, 0, 64, 64, 2)
	if d.Checksum() != e.Checksum() {
		t.Error("instrumentation must not change rendering")
	}
}

func TestInstrumentedAllPrimitives(t *testing.T) {
	img := atom.NewImage()
	p := atom.NewProbe(img, trace.Discard)
	d := New(img, p, 32, 32)
	d.Clear(1)
	d.Plot(1, 1, 2)
	d.Line(0, 0, 31, 10, 3)
	d.Text(0, 16, "ab", 4)
	d.Blit(10, 10, 2, 2, []byte{1, 0, 0, 1})
	if d.Ops != 6 {
		t.Errorf("ops = %d, want 6", d.Ops)
	}
	if p.Total() == 0 {
		t.Error("instrumented primitives must emit instructions")
	}
}
