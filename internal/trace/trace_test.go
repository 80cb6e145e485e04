package trace

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Int: "int", ShortInt: "shortint", Mul: "mul", Float: "float",
		Load: "load", Store: "store", Branch: "branch", Jump: "jump", Return: "return",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "invalid" {
		t.Errorf("out-of-range kind = %q, want invalid", got)
	}
}

func TestKindPredicates(t *testing.T) {
	if !Load.IsMemory() || !Store.IsMemory() {
		t.Error("Load/Store must be memory kinds")
	}
	if Int.IsMemory() || Branch.IsMemory() {
		t.Error("Int/Branch must not be memory kinds")
	}
	for _, k := range []Kind{Branch, Jump, Return} {
		if !k.IsControl() {
			t.Errorf("%v must be a control kind", k)
		}
	}
	for _, k := range []Kind{Int, ShortInt, Mul, Float, Load, Store} {
		if k.IsControl() {
			t.Errorf("%v must not be a control kind", k)
		}
	}
}

func TestEventFlags(t *testing.T) {
	e := Event{Kind: Branch, Flags: FlagTaken | FlagDep}
	if !e.Taken() || !e.Dep() || e.Call() {
		t.Errorf("flag decoding wrong: taken=%v dep=%v call=%v", e.Taken(), e.Dep(), e.Call())
	}
	e = Event{Kind: Jump, Flags: FlagCall}
	if !e.Call() || e.Taken() {
		t.Errorf("call flag decoding wrong")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Emit(Event{Kind: Int})
	c.Emit(Event{Kind: Load, Addr: 4})
	c.Emit(Event{Kind: Load, Addr: 8})
	c.Emit(Event{Kind: Store, Addr: 4})
	c.Emit(Event{Kind: Branch, Flags: FlagTaken})
	c.Emit(Event{Kind: Branch})
	if c.Total != 6 {
		t.Errorf("Total = %d, want 6", c.Total)
	}
	if c.Loads() != 2 || c.Stores() != 1 || c.Branches() != 2 {
		t.Errorf("loads=%d stores=%d branches=%d", c.Loads(), c.Stores(), c.Branches())
	}
	if c.TakenBr != 1 {
		t.Errorf("TakenBr = %d, want 1", c.TakenBr)
	}
	if c.Kind(Int) != 1 {
		t.Errorf("Kind(Int) = %d, want 1", c.Kind(Int))
	}
}

func TestCounterTotalsByKindSum(t *testing.T) {
	// Property: Total always equals the sum over kinds.
	f := func(kinds []uint8) bool {
		var c Counter
		for _, kb := range kinds {
			c.Emit(Event{Kind: Kind(kb % uint8(numKinds))})
		}
		var sum uint64
		for _, n := range c.ByKind {
			sum += n
		}
		return sum == c.Total && c.Total == uint64(len(kinds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiAndDiscard(t *testing.T) {
	var a, b Recorder
	m := Multi{&a, &b, Discard}
	var blk Block
	blk.Append(Event{Kind: Int})
	blk.Append(Event{Kind: Load})
	m.EmitBlock(&blk)
	if len(a.Events) != 2 || len(b.Events) != 2 {
		t.Errorf("multi fan-out failed: a=%d b=%d", len(a.Events), len(b.Events))
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	var b Block
	b.Append(Event{PC: 4, Kind: Int})
	r.EmitBlock(&b)
	b.Reset()
	b.Append(Event{PC: 8, Kind: Load, Addr: 100})
	r.EmitBlock(&b)
	if len(r.Events) != 2 || r.Events[0].PC != 4 || r.Events[1].Addr != 100 {
		t.Fatalf("recorder content wrong: %+v", r.Events)
	}
}
