package trace

import (
	"fmt"
	"testing"
)

// TestMultiFanOutOrdering pins Multi's contract: for each event, sinks are
// visited in slice order, and each sink sees the events in stream order.
func TestMultiFanOutOrdering(t *testing.T) {
	var log []string
	tap := func(name string) Sink {
		return SinkFunc(func(e Event) { log = append(log, fmt.Sprintf("%s:%d", name, e.PC)) })
	}
	m := Multi{tap("a"), tap("b"), tap("c")}
	m.Emit(Event{PC: 1})
	m.Emit(Event{PC: 2})
	want := []string{"a:1", "b:1", "c:1", "a:2", "b:2", "c:2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fan-out order wrong at %d: log = %v, want %v", i, log, want)
		}
	}
}

// TestCounterNotTakenBranch pins that TakenBr counts only taken
// conditional branches: not-taken branches, and taken-looking flags on
// non-branch kinds, must not count.
func TestCounterNotTakenBranch(t *testing.T) {
	var c Counter
	c.Emit(Event{Kind: Branch})                   // not taken
	c.Emit(Event{Kind: Branch})                   // not taken
	c.Emit(Event{Kind: Branch, Flags: FlagTaken}) // taken
	c.Emit(Event{Kind: Jump, Flags: FlagTaken})   // not a conditional branch
	c.Emit(Event{Kind: Int, Flags: FlagTaken})    // flag noise on ALU op
	if c.Branches() != 3 {
		t.Errorf("Branches = %d, want 3", c.Branches())
	}
	if c.TakenBr != 1 {
		t.Errorf("TakenBr = %d, want 1 (not-taken must not count)", c.TakenBr)
	}
}

// TestMultiEmpty pins that an empty Multi is a valid no-op sink.
func TestMultiEmpty(t *testing.T) {
	var m Multi
	m.Emit(Event{Kind: Load}) // must not panic
}

// TestTallySampling pins the producers' sampling contract: Check fires the
// hook once per crossed multiple of the interval, at the first check past
// it, and never without a hook.
func TestTallySampling(t *testing.T) {
	var tl Tally
	tl.Check() // no hook: must not panic
	var at []uint64
	tl.SampleEvery(10, func() { at = append(at, tl.Total) })
	for _, step := range []uint64{4, 4, 4, 25, 1, 2} {
		tl.Total += step
		tl.Check()
	}
	// Totals 4, 8, 12 (crosses 10), 37 (crosses 20 and 30: one sample),
	// 38, 40 (reaches 40).
	want := []uint64{12, 37, 40}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Errorf("samples at %v, want %v", at, want)
	}
	var c Counter
	c.Emit(Event{Kind: Branch, Flags: FlagTaken})
	tl.Add(c)
	if tl.Total != 41 || tl.ByKind[Branch] != 1 || tl.TakenBr != 1 {
		t.Errorf("Add: %+v", tl.Counter)
	}
}
