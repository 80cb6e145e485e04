package atom

import (
	"interplab/internal/trace"
)

// Phase classifies where in the interpretation cycle an instruction belongs.
// The split mirrors Table 2 of the paper: instructions spent fetching and
// decoding a virtual command versus instructions spent executing it, with
// Perl's one-time program precompilation reported separately.
type Phase uint8

const (
	// PhaseFetchDecode covers the dispatch loop and command decoding.
	PhaseFetchDecode Phase = iota
	// PhaseExecute covers the work the virtual command specifies.
	PhaseExecute
	// PhaseStartup covers one-time program precompilation (Perl's parse,
	// MIPSI's binary load, ...).
	PhaseStartup

	numPhases = int(PhaseStartup) + 1
)

// NumPhases counts the phases; Phase values are 0..NumPhases-1.
const NumPhases = numPhases

// phaseNames match the atom.Stats JSON tags (fetch_decode, execute,
// startup) so profile, manifest, and text output share one vocabulary.
var phaseNames = [numPhases]string{"fetch_decode", "execute", "startup"}

// String returns the phase name used by the manifest schema and the
// profiling layer.
func (ph Phase) String() string {
	if int(ph) < numPhases {
		return phaseNames[ph]
	}
	return "invalid"
}

// OpID names a virtual command, interned on a Probe.
type OpID int

// RegionID names an attribution region (e.g. the memory-model machinery),
// interned on a Probe.
type RegionID int

// Probe is the measurement context for one run: interpreters report work to
// it, and it emits the native-instruction stream while keeping per-command
// and per-region accounts.
type Probe struct {
	img *Image

	// tally counts every emitted event as it is emitted; its Total, Load
	// and Store counts double as Stats' Instructions, Loads and Stores.
	tally trace.Counter

	// stream is set when the probe has a sink that consumes the events
	// themselves (a simulator): only then are events built into blocks,
	// buffered in batch and delivered whole.  attrSync forces a flush
	// before every attribution change so blocks are attribution-uniform
	// for miss-joining sinks (RequireAttrSync); onAttr runs at every
	// attribution change while the outgoing state is still current
	// (OnAttrChange).
	batch    *trace.Batcher
	stream   bool
	attrSync bool
	onAttr   func()

	cur      *Routine
	frames   []frame
	sp       uint32
	stackReg *DataRegion

	// frameTop tracks the identity of the pushed-frame list in a trie
	// (FramesID); frameN hands out trie-node ids.
	frameTop *frameNode
	frameN   uint64

	lastDep bool
	depRng  uint32

	phase    Phase
	curOp    OpID
	ops      []opStat
	opNames  map[string]OpID
	commands uint64

	// countPairs switches on dynamic opcode-pair profiling: BeginCommand
	// counts every (previous, current) command pair in pairs, keyed
	// prev<<32|cur.  Off by default — the map update costs a few ns per
	// command, so only hot-pair measurements pay it.
	countPairs bool
	lastOp     OpID
	pairs      map[uint64]uint64

	// attrVersion increments whenever the attribution state a sink could
	// observe (frame stack, current routine, open command, phase) changes.
	// Profiling sinks use it to re-resolve their sample stack only on
	// transitions instead of on every event.
	attrVersion uint64

	regions     []regionStat
	regionNames map[string]RegionID
	regionStack []RegionID

	byPhase [numPhases]uint64
	// opTotals accumulate only while a command is open.
	unattributed uint64
}

type frame struct {
	r      *Routine
	cursor int
}

// frameNode is one vertex of the probe's call-stack identity trie: the
// path of pushed routines from the root names one frames list, and id is
// its dense identifier (the empty list is 0).  Two moments with equal
// FramesID have byte-identical pushed frames, which lets attribution
// consumers use the id as a cache-key component instead of re-walking the
// stack.
type frameNode struct {
	id   uint64
	par  *frameNode
	kids map[*Routine]*frameNode
}

type opStat struct {
	name  string
	count uint64
	fd    uint64
	ex    uint64
}

type regionStat struct {
	name     string
	instr    uint64
	accesses uint64
}

// NewProbe returns a probe over img writing events to sink.  With
// trace.Discard (or nil) the probe only counts: its Tally and Stats fill
// as usual, and no event is ever built.
func NewProbe(img *Image, sink trace.Sink) *Probe {
	if sink == nil {
		sink = trace.Discard
	}
	p := &Probe{
		img:         img,
		batch:       trace.NewBatcher(sink),
		stream:      sink != trace.Discard,
		curOp:       -1,
		lastOp:      -1,
		opNames:     make(map[string]OpID),
		regionNames: make(map[string]RegionID),
		depRng:      0x9e3779b9,
		sp:          StackTop,
	}
	p.stackReg = &DataRegion{Name: "native-stack", Base: StackTop - 1<<20, Size: 1 << 20}
	return p
}

// Image returns the image the probe executes against.
func (p *Probe) Image() *Image { return p.img }

// --- counting and batched emission ------------------------------------------

// Tally returns the probe's count of its emitted stream, kept at emit
// time.
func (p *Probe) Tally() *trace.Counter { return &p.tally }

// RequireAttrSync makes the probe flush its event buffer before every
// attribution change (command begin/end, phase switch, call/return, routine
// switch), so each delivered block is uniform under one attribution state.
// Only consumers that join out-of-band per-event callbacks to the stream
// need it — the pipeline's cache-miss observer attributes a miss to the
// profiling collector's current node, which is coherent only when the
// whole in-flight block shares one state.
func (p *Probe) RequireAttrSync() {
	p.attrSync = true
	p.batch.BorrowFrom(nil)
}

// BorrowSlots lets the probe hand its blocks to a delivery goroutine on a
// slot borrowed from s (trace.Batcher.BorrowFrom).  The sinks then run
// beside the guest, so a probe under RequireAttrSync, whose sinks join
// the probe's attribution state, ignores it.
func (p *Probe) BorrowSlots(s *trace.Slots) {
	if !p.attrSync {
		p.batch.BorrowFrom(s)
	}
}

// OnAttrChange registers fn to run at every attribution change (command
// begin/end, phase switch, call/return, routine switch), just before the
// change, while the outgoing state is still the probe's current one — and,
// under RequireAttrSync, after the events emitted under it were delivered.
// The profiling collector charges the events counted since the previous
// change there.  A later registration replaces an earlier one.
func (p *Probe) OnAttrChange(fn func()) { p.onAttr = fn }

// FlushEvents delivers any buffered events to the sink and waits until
// the sink has consumed them all.  Call it before reading sink-side state
// (recorders, simulators), and on every way out of a run, so a delivery
// goroutine (BorrowSlots) ends with it.  A probe without a sink buffers
// nothing.
func (p *Probe) FlushEvents() { p.batch.Flush(trace.FlushFinal) }

// BatchStats returns the probe's batching account: events and blocks
// delivered, split by flush trigger.  All zero for a probe without a sink.
func (p *Probe) BatchStats() trace.BatchStats { return p.batch.Stats() }

// bumpAttr records an attribution change: while the outgoing state, under
// which every buffered event was emitted, is still live, the buffer is
// flushed (attr-sync consumers) and the change hook runs; then the version
// moves.  Callers must invoke it BEFORE mutating attribution state.
func (p *Probe) bumpAttr() {
	if p.attrSync {
		p.batch.Flush(trace.FlushAttr)
	}
	if p.onAttr != nil {
		p.onAttr()
	}
	p.attrVersion++
}

// --- virtual command accounting -------------------------------------------

// OpName interns a virtual-command name.  Interpreters should intern once,
// at setup, and use the returned id on the hot path.
func (p *Probe) OpName(name string) OpID {
	if id, ok := p.opNames[name]; ok {
		return id
	}
	id := OpID(len(p.ops))
	p.ops = append(p.ops, opStat{name: name})
	p.opNames[name] = id
	return id
}

// BeginCommand opens a virtual command: the command count increments and
// subsequent instructions are attributed to the command's fetch/decode
// phase until BeginExecute.
func (p *Probe) BeginCommand(op OpID) {
	p.bumpAttr()
	p.curOp = op
	p.ops[op].count++
	p.commands++
	p.phase = PhaseFetchDecode
	if p.countPairs {
		if p.lastOp >= 0 {
			p.pairs[uint64(p.lastOp)<<32|uint64(uint32(op))]++
		}
		p.lastOp = op
	}
}

// CountPairs switches dynamic opcode-pair counting on or off: while on,
// every BeginCommand records the (previous, current) command pair, and
// Stats reports the hottest pairs (Stats.Pairs).  The counts are the
// profile layer's superinstruction-selection input (the fused-pair tables
// in internal/jvm and internal/mipsi cite them); they are off by default
// so ordinary measurements don't pay for the map update.
func (p *Probe) CountPairs(on bool) {
	p.countPairs = on
	if on && p.pairs == nil {
		p.pairs = make(map[uint64]uint64)
	}
}

// BeginExecute switches attribution of the open command to its execute
// phase.
func (p *Probe) BeginExecute() {
	p.bumpAttr()
	p.phase = PhaseExecute
}

// EndCommand closes the open command; instructions between commands belong
// to fetch/decode (the dispatch loop).
func (p *Probe) EndCommand() {
	p.bumpAttr()
	p.curOp = -1
	p.phase = PhaseFetchDecode
}

// SetStartup switches the probe in or out of the startup (precompilation)
// phase.
func (p *Probe) SetStartup(on bool) {
	p.bumpAttr()
	if on {
		p.phase = PhaseStartup
	} else {
		p.phase = PhaseFetchDecode
	}
}

// Commands returns the number of virtual commands begun so far.
func (p *Probe) Commands() uint64 { return p.commands }

// Total returns the number of native instructions emitted so far.
func (p *Probe) Total() uint64 { return p.tally.Total }

// --- attribution state (for profiling sinks) --------------------------------

// AttrVersion returns a counter that increments whenever the probe's
// attribution state (call stack, current routine, open command, phase)
// changes.  A sink observing the event stream may cache the resolved stack
// and re-resolve only when the version moves.
func (p *Probe) AttrVersion() uint64 { return p.attrVersion }

// CallStack appends the probe's current native call stack to buf —
// outermost caller first, ending at the routine currently executing — and
// returns the extended slice.  Routines entered via Exec without a Call
// appear as the leaf.
func (p *Probe) CallStack(buf []*Routine) []*Routine {
	for _, f := range p.frames {
		if f.r != nil {
			buf = append(buf, f.r)
		}
	}
	if p.cur != nil {
		buf = append(buf, p.cur)
	}
	return buf
}

// CurrentPhase returns the phase instructions are being attributed to.
func (p *Probe) CurrentPhase() Phase { return p.phase }

// CurrentOp returns the name of the open virtual command, or "" and false
// between commands (the dispatch loop and startup).
func (p *Probe) CurrentOp() (string, bool) {
	if p.curOp < 0 {
		return "", false
	}
	return p.ops[p.curOp].name, true
}

// CurrentOpID returns the open virtual command's interned id, or -1
// between commands.  Ids are stable for the probe's lifetime, so together
// with FramesID, CurrentRoutine, and CurrentPhase they form a complete,
// cheaply comparable key for the probe's attribution state.
func (p *Probe) CurrentOpID() OpID { return p.curOp }

// CurrentRoutine returns the routine currently executing — the call-stack
// leaf — or nil before any Exec.
func (p *Probe) CurrentRoutine() *Routine { return p.cur }

// FramesID identifies the current pushed-frame list (the call stack
// excluding the executing leaf): equal ids mean identical frames.  The id
// is maintained incrementally on Call/Ret, so reading it is one load.
func (p *Probe) FramesID() uint64 {
	if p.frameTop == nil {
		return 0
	}
	return p.frameTop.id
}

// pushFrameID descends the identity trie for a frame push of r.
func (p *Probe) pushFrameID(r *Routine) {
	t := p.frameTop
	if t == nil {
		t = &frameNode{}
		p.frameTop = t
	}
	c, ok := t.kids[r]
	if !ok {
		p.frameN++
		c = &frameNode{id: p.frameN, par: t}
		if t.kids == nil {
			t.kids = make(map[*Routine]*frameNode, 4)
		}
		t.kids[r] = c
	}
	p.frameTop = c
}

// popFrameID ascends the identity trie for a frame pop.
func (p *Probe) popFrameID() {
	if p.frameTop != nil && p.frameTop.par != nil {
		p.frameTop = p.frameTop.par
	}
}

// --- region accounting ------------------------------------------------------

// RegionName interns an attribution region name.
func (p *Probe) RegionName(name string) RegionID {
	if id, ok := p.regionNames[name]; ok {
		return id
	}
	id := RegionID(len(p.regions))
	p.regions = append(p.regions, regionStat{name: name})
	p.regionNames[name] = id
	return id
}

// Enter pushes an attribution region; instructions emitted until the
// matching Leave are credited to it (inclusively, through nesting).
func (p *Probe) Enter(id RegionID) { p.regionStack = append(p.regionStack, id) }

// Leave pops the innermost attribution region.
func (p *Probe) Leave() { p.regionStack = p.regionStack[:len(p.regionStack)-1] }

// CountAccess records one memory-model access against a region, for the
// §3.3 per-access averages.
func (p *Probe) CountAccess(id RegionID) { p.regions[id].accesses++ }

// --- instruction emission ---------------------------------------------------

// account books n instructions to the tally's Total and to the current
// phase, command and regions; the caller tallies their kinds.
func (p *Probe) account(n uint64) {
	p.tally.Total += n
	p.byPhase[p.phase] += n
	if p.curOp >= 0 {
		switch p.phase {
		case PhaseFetchDecode:
			p.ops[p.curOp].fd += n
		case PhaseExecute:
			p.ops[p.curOp].ex += n
		}
	} else if p.phase == PhaseFetchDecode {
		p.unattributed += n
	}
	for _, id := range p.regionStack {
		p.regions[id].instr += n
	}
}

// emit appends one event to the stream, setting its dependence flag.
// Only a streaming probe calls it.
func (p *Probe) emit(e trace.Event) {
	if p.lastDep {
		e.Flags |= p.depFlag()
	}
	p.lastDep = e.Kind == trace.Load || e.Kind == trace.ShortInt || e.Kind == trace.Mul
	p.batch.Append(e)
}

// stretch writes one walk step as stretch rows: m plain instructions from
// pc, short-ints at positions s, s+every, ... below m, then, when br, the
// conditional branch that closes the step, to target and taken when
// taken.  A row holds at most trace.MaxStretch instructions, so a longer
// step (a routine with sparse branches) splits into rows that no branch
// closes.  The dependence flags are drawn in stream order, as emit draws
// them: for the first instruction after a load, short-int or multiply.
func (p *Probe) stretch(pc uint32, m, s, every int, br bool, target uint32, taken bool) {
	for {
		plain := min(m, trace.MaxStretch)
		closes := br && plain < trace.MaxStretch
		l := plain
		if closes {
			l++
		}
		if l == 0 {
			return
		}
		var short uint32
		for ; s < plain; s += every {
			short |= 1 << s
		}
		s -= plain
		draw := short << 1 & (uint32(1)<<l - 1)
		if p.lastDep {
			draw |= 1
		}
		var dep uint32
		for ; draw != 0; draw &= draw - 1 {
			if p.depFlag() != 0 {
				dep |= draw & -draw
			}
		}
		p.lastDep = !closes && short>>(l-1)&1 != 0
		p.batch.AppendStretch(trace.Stretch{PC: pc, Len: l, Short: short, Dep: dep,
			Branch: closes, Target: target, Taken: taken})
		if closes {
			return
		}
		m -= plain
		pc += uint32(plain) * 4
	}
}

// depFlag draws the dependence flag of an instruction that follows a load
// or a long-latency op: roughly half of them consume its result, and the
// deterministic generator keeps runs repeatable.
func (p *Probe) depFlag() trace.Flags {
	x := p.depRng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.depRng = x
	if x&1 == 0 {
		return trace.FlagDep
	}
	return 0
}

// Exec reports n executed instructions inside routine r.  The probe walks
// r's address range from its current cursor, emitting integer instructions
// seasoned with the routine's short-integer and conditional-branch mix, and
// loops back to the top when it falls off the end — modelling the inner
// loops that make a routine's dynamic instruction count exceed its static
// size.
//
// The walk steps from branch to branch.  The next conditional branch is
// branchEvery−sinceBr instructions on and the wrap Size−cursor on; the
// plain instructions before whichever comes first hold the short-int
// slots at fixed spacing, the first at max(1, shortEvery−sinceSh).  So a
// step costs O(1) plus one loop turn per short slot, and a probe that
// only counts pays per branch, not per instruction.  A streaming probe
// walks the same steps and writes each as one stretch row: the plain
// instructions and the branch that ends them.
func (p *Probe) Exec(r *Routine, n int) {
	if n <= 0 {
		return
	}
	p.setCur(r)
	p.account(uint64(n))
	stream := p.stream
	base, size, brEvery, shEvery := r.Base, r.Size, r.branchEvery, r.shortEvery
	cursor, sinceBr, sinceSh := r.cursor, r.sinceBr, r.sinceSh
	var short, br, taken uint64
	total := uint64(n)
	for {
		// m plain instructions precede the next branch or wrap, or the
		// call ends among them; s is the 0-based position of their first
		// short-int slot.
		m, s := min(brEvery-sinceBr, size-cursor, n+1)-1, 0
		if m > 0 {
			s = max(1, shEvery-sinceSh) - 1
			// j is the 1-based position of a short-int slot in the
			// stretch, done the position of the last one walked.
			done := 0
			for j := s + 1; j <= m; j += shEvery {
				short++
				done = j
			}
			if done > 0 {
				sinceSh = m - done
			} else {
				sinceSh += m
			}
			cursor += m
			sinceBr += m
			n -= m
		}
		if n == 0 {
			if stream {
				p.stretch(base+uint32(cursor-m)*4, m, s, shEvery, false, 0, false)
			}
			break
		}
		pc := base + uint32(cursor)*4
		cursor++
		sinceSh++
		sinceBr = 0
		br++
		n--
		if cursor == size {
			// Loop back to the routine top: a taken backward branch.
			cursor = 0
			taken++
			if stream {
				p.stretch(pc-uint32(m)*4, m, s, shEvery, true, base, true)
			}
			continue
		}
		// Branch direction: most sites are strongly biased (loops and
		// error checks repeat their direction, which a 1-bit predictor
		// learns); a minority of data-dependent sites flip randomly.
		site := (pc>>2)*2654435761 ^ pc>>13
		var t uint32 // 1 when the branch is taken
		if site%8 == 0 {
			t = r.next32() & 1 // data-dependent site
		} else {
			t = site >> 3 & 1 // stable per-site direction
		}
		// A taken branch is a short backward one: it stays inside the
		// routine.
		taken += uint64(t)
		cursor -= min(int(r.modBranch(site/16))+1, cursor) * int(t)
		if stream {
			target := pc + 16
			if t != 0 {
				target = base + uint32(cursor)*4
			}
			p.stretch(pc-uint32(m)*4, m, s, shEvery, true, target, t != 0)
		}
	}
	r.cursor, r.sinceBr, r.sinceSh = cursor, sinceBr, sinceSh
	k := &p.tally.ByKind
	k[trace.Int] += total - short - br
	k[trace.ShortInt] += short
	k[trace.Branch] += br
	p.tally.TakenBr += taken
}

// setCur switches the executing routine, bumping the attribution version
// when it actually changes.
func (p *Probe) setCur(r *Routine) {
	if p.cur != r {
		p.bumpAttr()
		p.cur = r
	}
}

// ExecMul reports n long-latency (multiply/divide) instructions in r.
func (p *Probe) ExecMul(r *Routine, n int) {
	p.setCur(r)
	p.account(uint64(n))
	p.tally.ByKind[trace.Mul] += uint64(n)
	for i := 0; i < n; i++ {
		pc := r.pc()
		r.advance()
		if p.stream {
			p.emit(trace.Event{PC: pc, Kind: trace.Mul})
		}
	}
}

// step advances the current routine's cursor and returns the instruction
// address for a memory or control event.
func (p *Probe) step() uint32 {
	r := p.cur
	if r == nil {
		return CodeBase
	}
	pc := r.pc()
	r.advance()
	return pc
}

// Load reports one load at addr issued from the current routine.
func (p *Probe) Load(addr uint32) { p.access(addr, trace.Load) }

// Store reports one store at addr issued from the current routine.
func (p *Probe) Store(addr uint32) { p.access(addr, trace.Store) }

// access reports one data access of kind k at addr.
func (p *Probe) access(addr uint32, k trace.Kind) {
	p.account(1)
	p.tally.ByKind[k]++
	pc := p.step()
	if p.stream {
		p.emit(trace.Event{PC: pc, Addr: addr, Kind: k})
	}
}

// LoadRange reports n word loads walking forward from addr — an array or
// string traversal.
func (p *Probe) LoadRange(addr uint32, n int) {
	for i := 0; i < n; i++ {
		p.Load(addr + uint32(i)*4)
	}
}

// StoreRange reports n word stores walking forward from addr.
func (p *Probe) StoreRange(addr uint32, n int) {
	for i := 0; i < n; i++ {
		p.Store(addr + uint32(i)*4)
	}
}

// Call reports a subroutine call into r: a jump event, callee-save stores on
// the native stack, and the callee starts executing at its top.
func (p *Probe) Call(r *Routine) {
	var retpc uint32 = CodeBase
	if p.cur != nil {
		retpc = p.cur.pc()
	}
	p.account(1)
	p.tally.ByKind[trace.Jump]++
	// The jump belongs to the caller: it is emitted — and, under attr-sync
	// batching, flushed — before the frame push changes the call stack.
	if p.stream {
		p.emit(trace.Event{PC: retpc, Addr: r.Base, Kind: trace.Jump, Flags: trace.FlagCall})
	}
	p.bumpAttr()
	p.frames = append(p.frames, frame{r: p.cur, cursor: cursorOf(p.cur)})
	p.pushFrameID(p.cur)
	p.cur = r
	r.cursor = 0
	// Frame setup: push return address and a saved register.
	p.sp -= 16
	p.Store(p.sp)
	p.Store(p.sp + 8)
}

// Ret reports a subroutine return to the calling routine.
func (p *Probe) Ret() {
	if len(p.frames) == 0 {
		return
	}
	// Frame teardown: restore saved registers.
	p.Load(p.sp)
	p.Load(p.sp + 8)
	p.sp += 16
	f := p.frames[len(p.frames)-1]
	pc := p.step()
	var ret uint32 = CodeBase
	if f.r != nil {
		f.r.cursor = f.cursor
		ret = f.r.pc()
	}
	p.account(1)
	p.tally.ByKind[trace.Return]++
	// The return belongs to the callee: it is emitted — and, under
	// attr-sync batching, flushed — before the frame pop changes the call
	// stack.
	if p.stream {
		p.emit(trace.Event{PC: pc, Addr: ret, Kind: trace.Return})
	}
	p.bumpAttr()
	p.frames = p.frames[:len(p.frames)-1]
	p.popFrameID()
	p.cur = f.r
}

func cursorOf(r *Routine) int {
	if r == nil {
		return 0
	}
	return r.cursor
}
