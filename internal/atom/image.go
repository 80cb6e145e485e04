// Package atom is the instrumentation layer of the laboratory — the analog
// of the ATOM binary-rewriting tool the paper used on Digital Unix.
//
// The paper observes interpreters at the granularity of native Alpha
// instructions: how many execute per virtual command, which phase
// (fetch/decode vs. execute) they belong to, and which instruction and data
// addresses they touch.  We cannot rewrite the Go binary that hosts our
// interpreters, so instead every interpreter routine registers a synthetic
// *code region* with an Image, and the interpreter reports its work to a
// Probe ("execute n instructions of the symbol-table lookup routine", "load
// the word at this bucket address").  The Probe synthesizes the
// corresponding native-instruction events and keeps the paper's books:
// virtual command counts, per-command fetch/decode and execute instruction
// counts, per-region attribution (for the §3.3 memory-model numbers), and
// the event stream consumed by the processor simulator.
//
// Costs are not invented per benchmark: each routine's instruction counts
// are a small calibrated constant (documented where the routine is
// registered) multiplied by the real work performed — characters parsed,
// hash probes made, bytes copied, pixels drawn.
//
// The probe counts its stream as it emits it (Probe.Tally), and builds
// events only for a sink that simulates them.  A routine's synthetic code
// repeats at fixed spacing — a conditional branch every branchEvery
// instructions, a short-int every shortEvery, a wrap at the end — so Exec
// steps from one branch or wrap to the next and costs one step per branch,
// not one per instruction.
package atom

import (
	"fmt"
	"math/bits"
)

// Address-space layout of the synthetic native machine.  The choice mimics a
// conventional Unix process image: code low, static data in the middle,
// stack at the top.  All that matters to the simulator is that distinct
// structures get distinct, stable pages.
const (
	// CodeBase is the first instruction address handed to routines.
	CodeBase uint32 = 0x0040_0000
	// DataBase is the first byte handed to data regions.
	DataBase uint32 = 0x1000_0000
	// StackTop is the initial native stack pointer (the stack grows down).
	StackTop uint32 = 0x7fff_f000
)

// Image is the synthetic program image: a packed layout of code routines and
// data regions.  Build one Image per measured run, register the
// interpreter's routines and data structures against it, then create a Probe
// to execute against a trace sink.
type Image struct {
	nextCode uint32
	nextData uint32
	routines []*Routine
	regions  []*DataRegion
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{nextCode: CodeBase, nextData: DataBase}
}

// Routine registers a code routine of size instructions and returns it.
// Routines are packed in registration order, 32-byte (cache-line) aligned,
// just as a linker would lay out a binary's text segment.  The size should
// reflect the static code footprint of the corresponding interpreter
// routine: it bounds the instruction addresses Exec walks, and therefore
// determines how much instruction-cache space the routine occupies.
func (im *Image) Routine(name string, size int, opts ...RoutineOpt) *Routine {
	if size < 1 {
		size = 1
	}
	r := &Routine{
		index:       len(im.routines),
		Name:        name,
		Base:        im.nextCode,
		Size:        size,
		branchEvery: 8,
		shortEvery:  16,
		rng:         im.nextCode*2654435761 + 1,
	}
	for _, o := range opts {
		o(r)
	}
	r.brRecip = ^uint64(0)/uint64(r.branchEvery) + 1
	im.nextCode += uint32(size) * 4
	// Align the next routine to a cache line.
	im.nextCode = (im.nextCode + 31) &^ 31
	im.routines = append(im.routines, r)
	return r
}

// Data registers a data region of the given byte size and returns it.
// Regions are packed with 64-byte alignment.
func (im *Image) Data(name string, size uint32) *DataRegion {
	if size == 0 {
		size = 1
	}
	d := &DataRegion{Name: name, Base: im.nextData, Size: size}
	im.nextData += size
	im.nextData = (im.nextData + 63) &^ 63
	im.regions = append(im.regions, d)
	return d
}

// CodeBytes returns the total text-segment footprint in bytes.
func (im *Image) CodeBytes() uint32 { return im.nextCode - CodeBase }

// DataBytes returns the total static-data footprint in bytes.
func (im *Image) DataBytes() uint32 { return im.nextData - DataBase }

// Routines returns the registered routines in layout order.
func (im *Image) Routines() []*Routine { return im.routines }

// RoutineOpt configures a routine at registration time.
type RoutineOpt func(*Routine)

// WithBranchEvery sets how many instructions separate conditional branches
// inside the routine (default 8, a typical compiled-C basic-block length).
func WithBranchEvery(n int) RoutineOpt {
	return func(r *Routine) {
		if n > 0 {
			r.branchEvery = n
		}
	}
}

// WithShortEvery sets how many instructions separate short-integer
// (shift/byte) instructions (default 16).  String and byte-bashing routines
// should set this low: on the simulated 21064, as on the real one, byte
// operations are a stall source of their own.
func WithShortEvery(n int) RoutineOpt {
	return func(r *Routine) {
		if n > 0 {
			r.shortEvery = n
		}
	}
}

// Routine is a registered code routine.  A Probe walks its address range as
// the interpreter reports executed instructions.
type Routine struct {
	Name string
	Base uint32
	Size int // in instructions (4 bytes each)

	branchEvery int
	shortEvery  int
	index       int
	// brRecip is Lemire's fastmod reciprocal of branchEvery, ⌈2⁶⁴/
	// branchEvery⌉ (0 for 1), so the walk reduces a branch site modulo
	// branchEvery with multiplies instead of a hardware divide.
	brRecip uint64

	// Walk state (owned by the probe executing against the image).
	cursor  int
	sinceBr int
	sinceSh int
	rng     uint32
}

// Index returns the routine's registration position in its image: routines
// of one image are numbered densely from 0, so attribution consumers can
// index tables by routine instead of hashing it.
func (r *Routine) Index() int { return r.index }

// End returns the first address past the routine.
func (r *Routine) End() uint32 { return r.Base + uint32(r.Size)*4 }

// pc returns the current instruction address.
func (r *Routine) pc() uint32 { return r.Base + uint32(r.cursor)*4 }

// advance moves the cursor one instruction on, back to the top past the
// end.  The cursor is always in [0, Size), so no divide is needed.
func (r *Routine) advance() {
	r.cursor++
	if r.cursor == r.Size {
		r.cursor = 0
	}
}

// modBranch returns x mod branchEvery, exact for every 32-bit x (Lemire,
// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019).
func (r *Routine) modBranch(x uint32) uint32 {
	hi, _ := bits.Mul64(r.brRecip*uint64(x), uint64(r.branchEvery))
	return uint32(hi)
}

func (r *Routine) String() string {
	return fmt.Sprintf("%s@%#x[%d]", r.Name, r.Base, r.Size)
}

// next32 advances the routine's deterministic branch-direction generator.
func (r *Routine) next32() uint32 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	r.rng = x
	return x
}

// DataRegion is a registered data structure in the synthetic address space.
type DataRegion struct {
	Name string
	Base uint32
	Size uint32
}

// Addr returns the address of byte off within the region.  Offsets beyond
// the declared size wrap, so fixed-size regions can stand in for structures
// that grow: the working set stays bounded the way the declared size says.
func (d *DataRegion) Addr(off uint32) uint32 {
	if d.Size == 0 {
		return d.Base
	}
	return d.Base + off%d.Size
}

func (d *DataRegion) String() string {
	return fmt.Sprintf("%s@%#x[%d]", d.Name, d.Base, d.Size)
}
