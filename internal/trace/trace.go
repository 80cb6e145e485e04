// Package trace defines the native-instruction event model shared by the
// instrumentation layer (internal/atom) and the processor simulator
// (internal/alphasim).
//
// The reproduced paper measures interpreters by observing the stream of
// native (Alpha) instructions they execute, via ATOM binary rewriting.  Our
// equivalent is a stream of Event values: each Event is one native
// instruction with a program counter, a kind (integer op, load, store,
// branch, ...), and, where relevant, an effective address or branch target.
// Interpreters never construct Events directly; they drive an *atom.Probe*,
// which synthesizes the stream and counts it in a Counter as it goes.
// Only the simulators need the events themselves: a producer hands them
// to its Sink in Blocks, which a Batcher fills.  A block row is either one
// event or a stretch: a run of straight-line integer instructions and the
// conditional branch that ends it, which the probe walks in one step and
// the simulators charge in one step.  Block.AppendEvents expands a block
// into its events, for any consumer that wants them one by one.
package trace

// Kind classifies a native instruction.  The categories mirror the stall
// sources of Table 3 in the paper: short integer ops (shift/byte) have a
// 2-cycle latency on the simulated 21064, multiplies are long-latency
// ("other"), loads incur load-use delay, and control transfers engage the
// branch prediction hardware.
type Kind uint8

const (
	// Int is a single-cycle integer ALU instruction.
	Int Kind = iota
	// ShortInt is a shift or byte-manipulation instruction (2-cycle
	// latency on the 21064; the paper's "short int" stall class).
	ShortInt
	// Mul is an integer multiply or divide (long latency; "other").
	Mul
	// Float is a floating-point instruction (long latency; "other").
	Float
	// Load is a memory read; Addr holds the effective address.
	Load
	// Store is a memory write; Addr holds the effective address.
	Store
	// Branch is a conditional branch; Addr holds the target and the
	// Taken flag records the outcome.
	Branch
	// Jump is an unconditional jump or call; Addr holds the target.
	Jump
	// Return is a subroutine return; Addr holds the return address.
	Return

	numKinds = int(Return) + 1
)

var kindNames = [numKinds]string{"int", "shortint", "mul", "float", "load", "store", "branch", "jump", "return"}

// String returns the lower-case mnemonic class name.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "invalid"
}

// IsMemory reports whether the kind accesses data memory.
func (k Kind) IsMemory() bool { return k == Load || k == Store }

// IsControl reports whether the kind transfers control.
func (k Kind) IsControl() bool { return k == Branch || k == Jump || k == Return }

// Flags carries per-event boolean attributes.
type Flags uint8

const (
	// FlagTaken marks a conditional branch whose condition held.
	FlagTaken Flags = 1 << iota
	// FlagDep marks an instruction that consumes the result of the
	// immediately preceding instruction.  The pipeline model uses it to
	// decide whether load-use and long-latency delays actually stall.
	FlagDep
	// FlagCall marks a Jump that is a subroutine call (pushes the return
	// stack in the branch predictor).
	FlagCall
)

// Event is one native instruction.  Addresses are 32-bit: the synthetic
// address space laid out by internal/atom fits comfortably, and the small
// struct keeps multi-million-instruction runs cheap.
type Event struct {
	PC    uint32
	Addr  uint32
	Kind  Kind
	Flags Flags
}

// Taken reports whether a Branch event was taken.
func (e Event) Taken() bool { return e.Flags&FlagTaken != 0 }

// Dep reports whether the event depends on the previous instruction.
func (e Event) Dep() bool { return e.Flags&FlagDep != 0 }

// Call reports whether a Jump event is a subroutine call.
func (e Event) Call() bool { return e.Flags&FlagCall != 0 }

// Sink consumes a native-instruction stream in blocks: EmitBlock is
// called once per Block, blocks arrive in stream order, and the rows of a
// block are in program order, any of them a stretch of several
// instructions (see Block).  Producers reuse their blocks, so a sink must
// finish with b before EmitBlock returns and must not retain it.
// EmitBlock may run on a goroutine other than the producer's, beside it
// (a Batcher's delivery goroutine, see Slots), never on two at once: only
// a sink whose producer delivers inline, as atom.Probe does under
// RequireAttrSync, may read producer state.
// The simulators (the pipeline and the cache sweep) are the sinks;
// producers count the stream themselves (see Counter).
type Sink interface {
	EmitBlock(b *Block)
}
