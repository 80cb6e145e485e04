package alphasim

import (
	"fmt"
	"math/bits"

	"interplab/internal/trace"
)

// Cause identifies a source of unfilled issue slots — the rows of Table 3.
type Cause int

const (
	// CauseOther covers control hazards, bank conflicts, and long-latency
	// multiply/float results.
	CauseOther Cause = iota
	// CauseShortInt is the 2-cycle latency of shift/byte instructions.
	CauseShortInt
	// CauseLoadDelay is the 3-cycle load-use delay on a first-level hit.
	CauseLoadDelay
	// CauseMispredict is branch misprediction (4 cycles).
	CauseMispredict
	// CauseDTLB is a data TLB miss (40 cycles).
	CauseDTLB
	// CauseITLB is an instruction TLB miss (40 cycles).
	CauseITLB
	// CauseDMiss is a first- or second-level data cache miss (6 or 30).
	CauseDMiss
	// CauseIMiss is a first- or second-level instruction cache miss.
	CauseIMiss

	// NumCauses counts the stall categories.
	NumCauses = int(CauseIMiss) + 1
)

var causeNames = [NumCauses]string{
	"other", "short int", "load delay", "mispredict", "dtlb", "itlb", "dmiss", "imiss",
}

// String returns the Table 3 row label.
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// Config describes the simulated machine.  Defaults mirror Table 3.
type Config struct {
	Width int // issue width

	ICache CacheConfig
	DCache CacheConfig
	L2     CacheConfig

	PageSize    uint32
	ITLBEntries int
	DTLBEntries int

	BHTEntries  int
	ReturnStack int
	BTCEntries  int

	// Penalties in cycles.
	LoadDelay     int // extra cycles on a dependent use of a load that hit L1
	ShortIntDelay int // extra cycle on a dependent use of a shift/byte op
	LongOpDelay   int // dependent use of a multiply/float result
	Mispredict    int
	TLBMiss       int
	L1Miss        int // L1 miss, L2 hit
	L2Miss        int // additional cycles when L2 also misses
	BTCBubble     int // taken branch with a branch-target-cache miss
}

// DefaultConfig returns the Table 3 machine.
func DefaultConfig() Config {
	return Config{
		Width:  2,
		ICache: CacheConfig{Name: "L1I", Size: 8 << 10, LineSize: 32, Assoc: 1},
		DCache: CacheConfig{Name: "L1D", Size: 8 << 10, LineSize: 32, Assoc: 1},
		L2:     CacheConfig{Name: "L2", Size: 512 << 10, LineSize: 32, Assoc: 1},

		PageSize:    8 << 10,
		ITLBEntries: 8,
		DTLBEntries: 32,

		BHTEntries:  256,
		ReturnStack: 12,
		BTCEntries:  32,

		LoadDelay:     2, // 3-cycle latency = 2 stall cycles on a dependent use
		ShortIntDelay: 1, // 2-cycle latency
		LongOpDelay:   8,
		Mispredict:    4,
		TLBMiss:       40,
		L1Miss:        6,
		L2Miss:        24, // 6 + 24 = 30 cycles to memory, as in Table 3
		BTCBubble:     1,
	}
}

// Caps Validate puts on one Config, so that it cannot make New allocate
// without bound or make every lookup scan a huge table.
const (
	maxCacheLines = 1 << 20 // lines per cache: 12 MB of tags and ages
	maxEntries    = 4096    // Width, ways, TLB, BHT, return-stack and BTC entries
)

// Validate reports why cfg cannot be simulated as described, or nil.  The
// caches and TLBs index by shifts and masks, so line sizes, the page size
// and set counts must be powers of two; every table needs an entry, Width
// must be at least 1, and penalties must not be negative.
func (c Config) Validate() error {
	for _, cc := range []struct {
		name string
		geom CacheConfig
	}{{"ICache", c.ICache}, {"DCache", c.DCache}, {"L2", c.L2}} {
		if err := cc.geom.validate(cc.name); err != nil {
			return err
		}
	}
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("PageSize %d is not a power of two", c.PageSize)
	}
	for _, t := range []struct {
		name string
		n    int
	}{
		{"Width", c.Width}, {"ITLBEntries", c.ITLBEntries}, {"DTLBEntries", c.DTLBEntries},
		{"BHTEntries", c.BHTEntries}, {"ReturnStack", c.ReturnStack}, {"BTCEntries", c.BTCEntries},
	} {
		if t.n < 1 || t.n > maxEntries {
			return fmt.Errorf("%s %d is outside [1, %d]", t.name, t.n, maxEntries)
		}
	}
	for _, pen := range []struct {
		name   string
		cycles int
	}{
		{"LoadDelay", c.LoadDelay}, {"ShortIntDelay", c.ShortIntDelay}, {"LongOpDelay", c.LongOpDelay},
		{"Mispredict", c.Mispredict}, {"TLBMiss", c.TLBMiss}, {"L1Miss", c.L1Miss},
		{"L2Miss", c.L2Miss}, {"BTCBubble", c.BTCBubble},
	} {
		if pen.cycles < 0 {
			return fmt.Errorf("%s %d is negative", pen.name, pen.cycles)
		}
	}
	return nil
}

// validate checks one cache's geometry; name labels it in the error.
func (c CacheConfig) validate(name string) error {
	if c.LineSize < 1 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("%s.LineSize %d is not a power of two", name, c.LineSize)
	}
	if c.Assoc < 1 || c.Assoc > maxEntries {
		return fmt.Errorf("%s.Assoc %d is outside [1, %d]", name, c.Assoc, maxEntries)
	}
	lines := c.Size / c.LineSize
	if c.Size < 1 || lines > maxCacheLines {
		return fmt.Errorf("%s.Size %d is outside [1 byte, %d lines]", name, c.Size, maxCacheLines)
	}
	if sets := lines / c.Assoc; c.Size%c.LineSize != 0 || lines%c.Assoc != 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%s.Size %d is not a power-of-two number of %d-way sets of %d-byte lines",
			name, c.Size, c.Assoc, c.LineSize)
	}
	return nil
}

// Stats is the outcome of a simulated run, in the paper's issue-slot terms.
// The JSON tags are the manifest schema (docs/OBSERVABILITY.md); Stalls
// serializes as an array indexed by Cause (see causeNames for the order).
type Stats struct {
	Instructions uint64            `json:"instructions"`
	Cycles       uint64            `json:"cycles"`
	Stalls       [NumCauses]uint64 `json:"stalls"` // stall cycles per cause

	IFetches    uint64 `json:"ifetches"`
	IMisses1    uint64 `json:"imisses1"`
	IMisses2    uint64 `json:"imisses2"`
	DAccesses   uint64 `json:"daccesses"`
	DMisses1    uint64 `json:"dmisses1"`
	DMisses2    uint64 `json:"dmisses2"`
	ITLBMisses  uint64 `json:"itlb_misses"`
	DTLBMisses  uint64 `json:"dtlb_misses"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
}

// IssueSlots returns the total issue slots offered (width × cycles).
func (s Stats) IssueSlots(width int) uint64 { return uint64(width) * s.Cycles }

// BusyFrac returns the fraction of issue slots filled ("processor busy").
func (s Stats) BusyFrac(width int) float64 {
	slots := s.IssueSlots(width)
	if slots == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(slots)
}

// StallFrac returns the fraction of issue slots lost to one cause.
func (s Stats) StallFrac(c Cause, width int) float64 {
	slots := s.IssueSlots(width)
	if slots == 0 {
		return 0
	}
	return float64(uint64(width)*s.Stalls[c]) / float64(slots)
}

// OtherFrac returns the unfilled-slot fraction not covered by the named
// causes: CauseOther stalls plus dual-issue slack.  It is the residual, so
// busy + named stall fractions + OtherFrac account for every issue slot.
func (s Stats) OtherFrac(width int) float64 {
	f := 1 - s.BusyFrac(width)
	for c := 0; c < NumCauses; c++ {
		if Cause(c) != CauseOther {
			f -= s.StallFrac(Cause(c), width)
		}
	}
	if f < 0 {
		f = 0
	}
	return f
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IMissPer100 returns instruction-cache misses per 100 instructions, the
// metric of Figure 4.
func (s Stats) IMissPer100() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 100 * float64(s.IMisses1) / float64(s.Instructions)
}

// MissObserver receives cache-miss notifications from the pipeline, so
// that a miss can be attributed back to the interpreter routine and
// virtual command that caused it (the profiling layer's join).  Level 1 is
// an L1 miss that hit L2; level 2 also missed L2.  Calls arrive
// synchronously inside EmitBlock, in stream order, while the issuing
// probe's attribution state is still current for the block.
type MissObserver interface {
	IMiss(level int)
	DMiss(level int)
}

// Pipeline simulates the configured machine over an event stream.  It is
// a trace.Sink: it takes the stream in blocks, however the producer cuts
// them, and simulates each block's rows in order, a stretch row in one
// step.
type Pipeline struct {
	cfg    Config
	icache *Cache
	dcache *Cache
	l2     *Cache
	itlb   *TLB
	dtlb   *TLB
	pred   *Predictor

	// The MRU memo: the L1I line and iTLB page of the last fetch, and the
	// L1D line and dTLB page of the last data access (noAccess before the
	// first).  A repeat would hit that structure's most-recently-used
	// entry, so its lookup is skipped (see the package doc).
	iLine, iPage uint64
	dLine, dPage uint64

	// fetchShift is log2 of the smaller of a line and a page: a stretch's
	// fetches need looking up only where they enter a new one.
	fetchShift uint

	stats    Stats
	prevKind trace.Kind
	prevHit  bool // previous load hit L1

	missObs MissObserver
}

// noAccess marks an empty memo word.  Lines and pages are 32-bit values,
// so no address can collide with it.
const noAccess = 1 << 32

// SetMissObserver registers o to receive cache-miss notifications; nil
// disables them (the default).
func (p *Pipeline) SetMissObserver(o MissObserver) { p.missObs = o }

// New builds a pipeline for cfg, which must pass Validate: the caches and
// TLBs round a line or page size up to a power of two and mask a set
// count that is not one, and an empty cache or table divides by zero.
func New(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:    cfg,
		icache: NewCache(cfg.ICache),
		dcache: NewCache(cfg.DCache),
		l2:     NewCache(cfg.L2),
		itlb:   NewTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb:   NewTLB(cfg.DTLBEntries, cfg.PageSize),
		pred:   NewPredictor(cfg.BHTEntries, cfg.ReturnStack, cfg.BTCEntries),
		iLine:  noAccess,
		iPage:  noAccess,
		dLine:  noAccess,
		dPage:  noAccess,
	}
	p.fetchShift = min(p.icache.lineShift, p.itlb.pageShift)
	return p
}

// Config returns the simulated machine description.
func (p *Pipeline) Config() Config { return p.cfg }

func (p *Pipeline) stall(c Cause, cycles int) {
	p.stats.Stalls[c] += uint64(cycles)
}

// EmitBlock processes a whole batch in one loop over the block's
// columns; the machine model is per-instruction, but the instruction
// count is per-block.
func (p *Pipeline) EmitBlock(b *trace.Block) {
	n := b.N
	p.stats.Instructions += uint64(b.Insts)
	addrs, kinds, flags, lens := b.Addr[:n], b.Kind[:n], b.Flags[:n], b.Len[:n]
	for i, pc := range b.PC[:n] {
		if l := lens[i]; l != 0 {
			p.stretch(pc, int(l), b.Short[i], b.Dep[i], addrs[i], kinds[i], flags[i])
		} else {
			p.step(pc, addrs[i], kinds[i], flags[i])
		}
	}
}

// step simulates one native instruction past its issue slot, which
// Stats accounts from the instruction count.
func (p *Pipeline) step(pc, addr uint32, kind trace.Kind, flags trace.Flags) {
	st := &p.stats
	p.fetch(pc)
	if flags&trace.FlagDep != 0 {
		p.depStall()
	}

	switch kind {
	case trace.Load, trace.Store:
		st.DAccesses++
		if page := uint64(addr >> p.dtlb.pageShift); page != p.dPage {
			p.dPage = page
			if !p.dtlb.Access(addr) {
				st.DTLBMisses++
				p.stall(CauseDTLB, p.cfg.TLBMiss)
			}
		}
		hit := true
		if line := uint64(addr >> p.dcache.lineShift); line != p.dLine {
			p.dLine = line
			hit = p.dcache.Access(addr)
		}
		p.prevHit = hit
		if !hit {
			st.DMisses1++
			p.stall(CauseDMiss, p.cfg.L1Miss)
			level := 1
			if !p.l2.Access(addr) {
				st.DMisses2++
				p.stall(CauseDMiss, p.cfg.L2Miss)
				level = 2
			}
			if p.missObs != nil {
				p.missObs.DMiss(level)
			}
		}
	case trace.Branch:
		p.branch(pc, addr, flags)
	case trace.Jump:
		if flags&trace.FlagCall != 0 {
			p.pred.Call(pc + 4)
		}
		p.stall(CauseOther, p.cfg.BTCBubble)
	case trace.Return:
		if p.pred.Ret(addr) {
			st.Mispredicts++
			p.stall(CauseMispredict, p.cfg.Mispredict)
		}
	}
	p.prevKind = kind
}

// stretch simulates a stretch row: n instructions from pc, ShortInt where
// short has a bit, FlagDep where dep has one, and, when kind is Branch,
// the last a conditional branch to target.  It costs a step per line or
// page the fetches enter, not per instruction:
//
//   - Fetch: the first instruction of each line and page the stretch
//     enters is looked up as step looks it up, and the rest repeat the
//     memoised line and page.  The iTLB and L1I only see their own
//     streams, so taking one's lookups before the other's changes nothing.
//   - Dependences: only the first instruction can depend on a load or a
//     long-latency op, the row before.  Inside the stretch the producer is
//     an Int, which never stalls, or a ShortInt, so the short-int stalls
//     are the dependent instructions that follow one: dep & short<<1.
//   - The closing branch goes through the predictor as in step.
func (p *Pipeline) stretch(pc uint32, n int, short, dep, target uint32, kind trace.Kind, flags trace.Flags) {
	last := pc + uint32(n-1)*4
	for a := pc; ; {
		p.fetch(a)
		next := nextUnit(a, p.fetchShift)
		if last-a < next {
			break
		}
		a += next
	}
	if dep&1 != 0 {
		p.depStall()
	}
	if k := bits.OnesCount32(dep & (short << 1)); k != 0 {
		p.stall(CauseShortInt, k*p.cfg.ShortIntDelay)
	}
	switch {
	case kind == trace.Branch:
		p.branch(last, target, flags)
		p.prevKind = trace.Branch
	case short>>(n-1)&1 != 0:
		p.prevKind = trace.ShortInt
	default:
		p.prevKind = trace.Int
	}
}

// nextUnit returns the distance from the instruction at a to the first
// instruction of a straight-line run, 4 bytes apart, that lies past a's
// aligned 1<<shift-byte unit (a line or a page).  A unit wider than 2^31
// bytes is taken as 2^31: a run may then stop at a boundary inside it,
// where the memo makes the lookup a known hit.
func nextUnit(a uint32, shift uint) uint32 {
	size := uint32(1) << min(shift, 31)
	gap := size - a&(size-1)
	return (gap + 3) &^ 3
}

// fetch consults the iTLB and L1I for the instruction at pc, except that a
// fetch from the memoised page or line is a known hit.
func (p *Pipeline) fetch(pc uint32) {
	if uint64(pc>>p.itlb.pageShift) != p.iPage || uint64(pc>>p.icache.lineShift) != p.iLine {
		p.lookup(pc)
	}
}

// lookup is fetch past its fast path: the page or the line is new.
func (p *Pipeline) lookup(pc uint32) {
	st := &p.stats
	if page := uint64(pc >> p.itlb.pageShift); page != p.iPage {
		p.iPage = page
		if !p.itlb.Access(pc) {
			st.ITLBMisses++
			p.stall(CauseITLB, p.cfg.TLBMiss)
		}
	}
	if line := uint64(pc >> p.icache.lineShift); line != p.iLine {
		p.iLine = line
		if !p.icache.Access(pc) {
			st.IMisses1++
			p.stall(CauseIMiss, p.cfg.L1Miss)
			level := 1
			if !p.l2.Access(pc) {
				st.IMisses2++
				p.stall(CauseIMiss, p.cfg.L2Miss)
				level = 2
			}
			if p.missObs != nil {
				p.missObs.IMiss(level)
			}
		}
	}
}

// depStall charges the result-latency stall of an instruction that
// consumes the previous instruction's result.
func (p *Pipeline) depStall() {
	switch p.prevKind {
	case trace.Load:
		if p.prevHit {
			p.stall(CauseLoadDelay, p.cfg.LoadDelay)
		}
	case trace.ShortInt:
		p.stall(CauseShortInt, p.cfg.ShortIntDelay)
	case trace.Mul, trace.Float:
		p.stall(CauseOther, p.cfg.LongOpDelay)
	}
}

// branch runs the conditional branch at pc through the predictor.
func (p *Pipeline) branch(pc, target uint32, flags trace.Flags) {
	p.stats.Branches++
	mis, btcMiss := p.pred.Cond(pc, target, flags&trace.FlagTaken != 0)
	if mis {
		p.stats.Mispredicts++
		p.stall(CauseMispredict, p.cfg.Mispredict)
	} else if btcMiss {
		p.stall(CauseOther, p.cfg.BTCBubble)
	}
}

// Stats returns the accumulated statistics.  Every instruction is one
// fetch, and Width instructions issue per cycle when nothing stalls (a
// trailing partial group still owns a cycle), so Cycles is the base
// issue cycles plus every stall cycle.
func (p *Pipeline) Stats() Stats {
	s := p.stats
	s.IFetches = s.Instructions
	w := uint64(max(p.cfg.Width, 1))
	s.Cycles = (s.Instructions + w - 1) / w
	for _, c := range s.Stalls {
		s.Cycles += c
	}
	return s
}
