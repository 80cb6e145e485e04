package atom

import (
	"testing"
	"testing/quick"

	"interplab/internal/trace"
)

func TestImageLayout(t *testing.T) {
	im := NewImage()
	r1 := im.Routine("dispatch", 40)
	r2 := im.Routine("handler", 100)
	if r1.Base != CodeBase {
		t.Errorf("first routine base = %#x, want %#x", r1.Base, CodeBase)
	}
	if r2.Base < r1.End() {
		t.Errorf("routines overlap: r1 ends %#x, r2 starts %#x", r1.End(), r2.Base)
	}
	if r2.Base%32 != 0 {
		t.Errorf("routine base %#x not cache-line aligned", r2.Base)
	}
	d1 := im.Data("heap", 4096)
	d2 := im.Data("symtab", 1024)
	if d1.Base != DataBase {
		t.Errorf("first data base = %#x, want %#x", d1.Base, DataBase)
	}
	if d2.Base < d1.Base+d1.Size {
		t.Errorf("data regions overlap")
	}
	if im.CodeBytes() == 0 || im.DataBytes() == 0 {
		t.Error("footprints must be nonzero")
	}
	if len(im.Routines()) != 2 {
		t.Errorf("Routines() = %d entries, want 2", len(im.Routines()))
	}
}

func TestImageLayoutProperty(t *testing.T) {
	// Property: routines never overlap and are registered in ascending order.
	f := func(sizes []uint16) bool {
		im := NewImage()
		var prevEnd uint32
		for i, s := range sizes {
			r := im.Routine("r", int(s%2000)+1)
			if i > 0 && r.Base < prevEnd {
				return false
			}
			prevEnd = r.End()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataRegionAddrWraps(t *testing.T) {
	im := NewImage()
	d := im.Data("buf", 100)
	if d.Addr(0) != d.Base {
		t.Errorf("Addr(0) = %#x, want base %#x", d.Addr(0), d.Base)
	}
	if d.Addr(100) != d.Base {
		t.Errorf("Addr(size) must wrap to base")
	}
	if a := d.Addr(250); a < d.Base || a >= d.Base+d.Size {
		t.Errorf("wrapped address %#x escapes region [%#x,%#x)", a, d.Base, d.Base+d.Size)
	}
}

func TestExecStaysInRoutine(t *testing.T) {
	im := NewImage()
	r := im.Routine("loop", 64)
	var rec trace.Recorder
	p := NewProbe(im, &rec)
	p.Exec(r, 1000)
	p.FlushEvents()
	if len(rec.Events) != 1000 {
		t.Fatalf("emitted %d events, want 1000", len(rec.Events))
	}
	for i, e := range rec.Events {
		if e.PC < r.Base || e.PC >= r.End() {
			t.Fatalf("event %d PC %#x outside routine [%#x,%#x)", i, e.PC, r.Base, r.End())
		}
	}
}

// recountSink is a block sink that recounts every event it receives, one
// by one, into its Counter: the per-event reference for the probe's tally.
type recountSink struct{ trace.Counter }

func (r *recountSink) EmitBlock(b *trace.Block) {
	for _, e := range b.AppendEvents(nil) {
		r.Emit(e)
	}
}

func TestExecEmitsMix(t *testing.T) {
	im := NewImage()
	r := im.Routine("strops", 128, WithShortEvery(4), WithBranchEvery(6))
	var c recountSink
	p := NewProbe(im, &c)
	p.Exec(r, 10000)
	p.FlushEvents()
	if c.Total != 10000 {
		t.Fatalf("total = %d, want 10000", c.Total)
	}
	if c.Kind(trace.ShortInt) == 0 {
		t.Error("expected short-int instructions in the mix")
	}
	if c.Branches() == 0 {
		t.Error("expected conditional branches in the mix")
	}
	// A branch roughly every 6 instructions: between 1/12 and 1/3 of stream.
	frac := float64(c.Branches()) / float64(c.Total)
	if frac < 1.0/12 || frac > 1.0/3 {
		t.Errorf("branch fraction %.3f implausible for branchEvery=6", frac)
	}
}

func TestLoadStoreAccounting(t *testing.T) {
	im := NewImage()
	r := im.Routine("r", 32)
	d := im.Data("d", 256)
	var c recountSink
	p := NewProbe(im, &c)
	p.Exec(r, 10)
	p.Load(d.Addr(0))
	p.Store(d.Addr(4))
	p.LoadRange(d.Addr(0), 5)
	p.StoreRange(d.Addr(0), 3)
	p.FlushEvents()
	st := p.Stats()
	if st.Loads != 6 || st.Stores != 4 {
		t.Errorf("loads=%d stores=%d, want 6/4", st.Loads, st.Stores)
	}
	if c.Loads() != 6 || c.Stores() != 4 {
		t.Errorf("sink loads=%d stores=%d, want 6/4", c.Loads(), c.Stores())
	}
	if st.Instructions != 10+6+4 {
		t.Errorf("instructions = %d, want 20", st.Instructions)
	}
}

func TestCommandAccounting(t *testing.T) {
	im := NewImage()
	disp := im.Routine("dispatch", 24)
	add := im.Routine("op-add", 16)
	p := NewProbe(im, trace.Discard)
	opAdd := p.OpName("add")
	opSub := p.OpName("sub")

	for i := 0; i < 10; i++ {
		p.BeginCommand(opAdd)
		p.Exec(disp, 5) // fetch/decode
		p.BeginExecute()
		p.Exec(add, 7)
		p.EndCommand()
	}
	p.BeginCommand(opSub)
	p.Exec(disp, 5)
	p.BeginExecute()
	p.Exec(add, 3)
	p.EndCommand()

	st := p.Stats()
	if st.Commands != 11 {
		t.Fatalf("commands = %d, want 11", st.Commands)
	}
	a, ok := st.Op("add")
	if !ok || a.Count != 10 || a.FetchDecode != 50 || a.Execute != 70 {
		t.Fatalf("add stats wrong: %+v", a)
	}
	s, ok := st.Op("sub")
	if !ok || s.Count != 1 || s.FetchDecode != 5 || s.Execute != 3 {
		t.Fatalf("sub stats wrong: %+v", s)
	}
	fd, ex := st.InstructionsPerCommand()
	if fd != 5 || ex != (70.0+3)/11 {
		t.Errorf("per-command fd=%.2f ex=%.2f", fd, ex)
	}
	// Ops sorted by descending total.
	if st.Ops[0].Name != "add" {
		t.Errorf("expected add first, got %s", st.Ops[0].Name)
	}
}

func TestStartupPhase(t *testing.T) {
	im := NewImage()
	parse := im.Routine("parse", 200)
	run := im.Routine("run", 50)
	p := NewProbe(im, trace.Discard)
	p.SetStartup(true)
	p.Exec(parse, 123)
	p.SetStartup(false)
	op := p.OpName("cmd")
	p.BeginCommand(op)
	p.BeginExecute()
	p.Exec(run, 10)
	p.EndCommand()
	st := p.Stats()
	if st.Startup != 123 {
		t.Errorf("startup = %d, want 123", st.Startup)
	}
	if st.Execute != 10 {
		t.Errorf("execute = %d, want 10", st.Execute)
	}
}

func TestRegionAccounting(t *testing.T) {
	im := NewImage()
	r := im.Routine("lookup", 80)
	p := NewProbe(im, trace.Discard)
	mem := p.RegionName("memmodel")
	inner := p.RegionName("hash")

	p.Enter(mem)
	p.Exec(r, 10)
	p.Enter(inner)
	p.Exec(r, 5)
	p.Leave()
	p.Exec(r, 2)
	p.CountAccess(mem)
	p.Leave()
	p.Exec(r, 100) // outside any region

	st := p.Stats()
	m, _ := st.Region("memmodel")
	if m.Instructions != 17 {
		t.Errorf("memmodel instr = %d, want 17 (inclusive)", m.Instructions)
	}
	if m.Accesses != 1 {
		t.Errorf("memmodel accesses = %d, want 1", m.Accesses)
	}
	if m.PerAccess() != 17 {
		t.Errorf("per-access = %.1f, want 17", m.PerAccess())
	}
	h, _ := st.Region("hash")
	if h.Instructions != 5 {
		t.Errorf("hash instr = %d, want 5", h.Instructions)
	}
}

func TestCallRet(t *testing.T) {
	im := NewImage()
	caller := im.Routine("caller", 40)
	callee := im.Routine("callee", 30)
	var rec trace.Recorder
	p := NewProbe(im, &rec)
	p.Exec(caller, 3)
	p.Call(callee)
	p.Exec(callee, 5)
	p.Ret()
	p.Exec(caller, 2)
	p.FlushEvents()

	var jumps, rets int
	for _, e := range rec.Events {
		switch e.Kind {
		case trace.Jump:
			jumps++
			if !e.Call() {
				t.Error("jump should carry call flag")
			}
			if e.Addr != callee.Base {
				t.Errorf("call target %#x, want %#x", e.Addr, callee.Base)
			}
		case trace.Return:
			rets++
		}
	}
	if jumps != 1 || rets != 1 {
		t.Fatalf("jumps=%d rets=%d, want 1/1", jumps, rets)
	}
	// Call/Ret also generate register save/restore traffic.
	st := p.Stats()
	if st.Loads != 2 || st.Stores != 2 {
		t.Errorf("frame traffic loads=%d stores=%d, want 2/2", st.Loads, st.Stores)
	}
	// After return, execution resumes in the caller's range.
	last := rec.Events[len(rec.Events)-1]
	if last.PC < caller.Base || last.PC >= caller.End() {
		t.Errorf("after ret, PC %#x outside caller", last.PC)
	}
}

func TestRetWithoutCallIsNoop(t *testing.T) {
	im := NewImage()
	p := NewProbe(im, trace.Discard)
	p.Ret() // must not panic
	if p.Total() != 0 {
		t.Errorf("unbalanced ret emitted %d instructions", p.Total())
	}
}

func TestNestedCalls(t *testing.T) {
	im := NewImage()
	a := im.Routine("a", 20)
	b := im.Routine("b", 20)
	c := im.Routine("c", 20)
	p := NewProbe(im, trace.Discard)
	p.Exec(a, 2)
	p.Call(b)
	p.Exec(b, 2)
	p.Call(c)
	p.Exec(c, 2)
	p.Ret()
	p.Exec(b, 1)
	p.Ret()
	p.Exec(a, 1)
	// Balanced stack: sp restored.
	if p.sp != StackTop {
		t.Errorf("sp = %#x, want %#x after balanced calls", p.sp, StackTop)
	}
}

func TestOpNameInterning(t *testing.T) {
	p := NewProbe(NewImage(), trace.Discard)
	a := p.OpName("x")
	b := p.OpName("x")
	c := p.OpName("y")
	if a != b {
		t.Error("same name must intern to same id")
	}
	if a == c {
		t.Error("different names must get different ids")
	}
}

func TestExecTotalMatchesSink(t *testing.T) {
	// Property: for any sequence of exec/load/store amounts, the probe's
	// instruction total equals the sink's event total.
	f := func(ops []uint8) bool {
		im := NewImage()
		r := im.Routine("r", 77)
		d := im.Data("d", 1024)
		var c recountSink
		p := NewProbe(im, &c)
		for _, o := range ops {
			switch o % 3 {
			case 0:
				p.Exec(r, int(o%50)+1)
			case 1:
				p.Load(d.Addr(uint32(o)))
			case 2:
				p.Store(d.Addr(uint32(o)))
			}
		}
		p.FlushEvents()
		return p.Total() == c.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsPhaseConservation(t *testing.T) {
	// Property: startup + fetchdecode + execute == total instructions.
	f := func(ops []uint8) bool {
		im := NewImage()
		r := im.Routine("r", 33)
		p := NewProbe(im, trace.Discard)
		op := p.OpName("o")
		for _, o := range ops {
			switch o % 4 {
			case 0:
				p.SetStartup(true)
				p.Exec(r, int(o%7)+1)
				p.SetStartup(false)
			case 1:
				p.BeginCommand(op)
				p.Exec(r, 2)
				p.BeginExecute()
				p.Exec(r, 3)
				p.EndCommand()
			case 2:
				p.Exec(r, 1)
			case 3:
				p.Load(DataBase)
			}
		}
		st := p.Stats()
		return st.Startup+st.FetchDecode+st.Execute == st.Instructions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModBranchMatchesDivide(t *testing.T) {
	xs := []uint32{0, 1, 15, 16, 1<<31 - 1, 1 << 31, ^uint32(0) - 1, ^uint32(0)}
	for x := uint32(0x9e3779b9); len(xs) < 2000; {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		xs = append(xs, x)
	}
	im := NewImage()
	for _, d := range []int{1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 1000, 1<<16 + 1, 1<<31 - 1} {
		r := im.Routine("r", 8, WithBranchEvery(d))
		for _, x := range xs {
			if got, want := r.modBranch(x), x%uint32(d); got != want {
				t.Fatalf("modBranch(%d) with branchEvery %d = %d, want %d", x, d, got, want)
			}
		}
	}
}

func TestAdvanceWrapsAtSize(t *testing.T) {
	im := NewImage()
	for size := 1; size <= 5; size++ {
		r := im.Routine("r", size)
		for c := 0; c < size; c++ {
			r.cursor = c
			r.advance()
			if r.cursor != (c+1)%size {
				t.Fatalf("size %d: cursor %d advanced to %d, want %d", size, c, r.cursor, (c+1)%size)
			}
		}
	}
}
