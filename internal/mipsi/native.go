package mipsi

import (
	"fmt"

	"interplab/internal/mips"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// Synthetic kernel layout for direct-mode syscalls: a real compiled program
// spends its system time in precompiled kernel code touching the buffer
// cache.
const (
	kernelBase  uint32 = 0x0030_0000
	kernelSize  uint32 = 4 << 10
	kernelCache uint32 = 0x0f00_0000
)

// Native executes a MIPS binary directly: every guest instruction becomes
// exactly one native instruction event, with its own PC and effective
// address.  This is the compiled-C execution mode — the baseline of
// Table 1, the C des row of Table 2, and the native SPEC runs of Figure 3.
type Native struct {
	M *Machine

	// Tally counts the emitted stream at emit time (Table 2's C row
	// equates virtual commands with native instructions).  NewNative
	// points it at a tally of the Native's own; a caller may point it at
	// a shared one before Run.
	Tally *trace.Counter

	// batch buffers the emitted stream into blocks for the sink; only a
	// Native with a sink (stream) builds events at all.  The compiled-C
	// path has no attribution state, so blocks only flush on fill and at
	// the end of Run.
	batch  *trace.Batcher
	stream bool

	prevDest int // register written by the previous instruction (0 = none)
	kpc      uint32
}

// NewNative loads prog into a machine for direct execution.
func NewNative(prog *mips.Program, os *vfs.OS, sink trace.Sink) (*Native, error) {
	m, err := NewMachine(prog, os)
	if err != nil {
		return nil, err
	}
	if sink == nil {
		sink = trace.Discard
	}
	return &Native{
		M:      m,
		Tally:  new(trace.Counter),
		batch:  trace.NewBatcher(sink),
		stream: sink != trace.Discard,
	}, nil
}

// emit counts e and, when the Native has a sink, buffers it.
func (n *Native) emit(e trace.Event) {
	n.Tally.Emit(e)
	if n.stream {
		n.batch.Append(e)
	}
}

// BorrowSlots lets the Native hand its blocks to a delivery goroutine on
// a slot borrowed from s (trace.Batcher.BorrowFrom).
func (n *Native) BorrowSlots(s *trace.Slots) { n.batch.BorrowFrom(s) }

// Flush delivers any buffered events and waits until the sink has
// consumed them all.  Run flushes on every exit path; callers stepping
// the machine by hand flush before reading sink state.
func (n *Native) Flush() { n.batch.Flush(trace.FlushFinal) }

// BatchStats returns the native path's batching account.
func (n *Native) BatchStats() trace.BatchStats { return n.batch.Stats() }

// Step executes one guest instruction and emits its event.
func (n *Native) Step() error {
	m := n.M
	pc := m.PC
	d, err := m.fetch()
	if err != nil {
		return err
	}
	var info StepInfo
	if err := m.Exec(pc, &d.Inst, &info); err != nil {
		return err
	}

	e := trace.Event{PC: pc, Kind: d.kind, Flags: d.flags}
	if n.prevDest != 0 && (d.Rs == n.prevDest || d.Rt == n.prevDest) {
		e.Flags |= trace.FlagDep
	}
	n.prevDest = int(d.dest)
	switch d.kind {
	case trace.Load, trace.Store:
		e.Addr = info.MemAddr
	case trace.Branch:
		e.Addr = info.Target
		if info.Taken {
			e.Flags |= trace.FlagTaken
		}
	case trace.Jump, trace.Return:
		e.Addr = info.Target
	}
	if d.Op != mips.SYSCALL {
		n.emit(e)
		return nil
	}
	e.Addr = kernelBase
	n.emit(e)
	n.kernel(&info)
	return nil
}

// kernel emits the precompiled kernel path for a trap: entry/validation
// code plus a word-copy loop over the buffer cache for read/write payloads.
func (n *Native) kernel(info *StepInfo) {
	exec := func(cnt int) {
		for i := 0; i < cnt; i++ {
			n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Int})
			n.kpc = (n.kpc + 4) % kernelSize
		}
	}
	exec(90)
	for b := 0; b < info.SyscallBytes; b += 4 {
		n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Load, Addr: kernelCache + uint32(b)%(256<<10)})
		n.kpc = (n.kpc + 4) % kernelSize
		exec(1)
	}
	exec(30)
	n.emit(trace.Event{PC: kernelBase + n.kpc, Kind: trace.Return, Addr: info.PC + 4})
}

// Run executes until exit or maxSteps instructions (0 = no limit).
func (n *Native) Run(maxSteps uint64) error {
	defer n.Flush()
	for maxSteps == 0 || n.M.Steps < maxSteps {
		if err := n.Step(); err != nil {
			if err == ErrExited || n.M.Exited() {
				return nil
			}
			return err
		}
		if n.M.Exited() {
			return nil
		}
	}
	return fmt.Errorf("mipsi: native step budget exhausted (%d)", maxSteps)
}
