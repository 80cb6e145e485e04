package trace

import (
	"fmt"
	"testing"
)

// tap is a test sink that logs each event it receives as name:PC.
type tap struct {
	name string
	log  *[]string
}

func (s tap) EmitBlock(b *Block) {
	for _, e := range b.AppendEvents(nil) {
		*s.log = append(*s.log, fmt.Sprintf("%s:%d", s.name, e.PC))
	}
}

// TestMultiFanOutOrdering pins Multi's contract: for each block, sinks are
// visited in slice order, and each sink sees the blocks in stream order.
func TestMultiFanOutOrdering(t *testing.T) {
	var log []string
	m := Multi{tap{"a", &log}, tap{"b", &log}, tap{"c", &log}}
	var b Block
	for _, pc := range []uint32{1, 2} {
		b.Reset()
		b.Append(Event{PC: pc})
		m.EmitBlock(&b)
	}
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
	var b Block
	b.Append(Event{Kind: Load})
	m.EmitBlock(&b) // must not panic
}

// TestCounterAdd pins that Add folds another tally's kinds, total and
// taken branches into c.
func TestCounterAdd(t *testing.T) {
	c := Counter{Total: 40}
	var o Counter
	o.Emit(Event{Kind: Branch, Flags: FlagTaken})
	c.Add(o)
	if c.Total != 41 || c.ByKind[Branch] != 1 || c.TakenBr != 1 {
		t.Errorf("Add: %+v", c)
	}
}
