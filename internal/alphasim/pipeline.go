package alphasim

import (
	"fmt"

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

// MissObserver receives cache-miss notifications from the pipeline, carrying
// the event that issued the access so the miss can be attributed back to the
// interpreter routine and virtual command that caused it (the profiling
// layer's join).  Level 1 is an L1 miss that hit L2; level 2 also missed L2.
// Calls arrive synchronously inside Emit, while the issuing probe's
// attribution state is still current for the event.
type MissObserver interface {
	IMiss(e trace.Event, level int)
	DMiss(e trace.Event, level int)
}

// Pipeline simulates the configured machine over an event stream.  It
// implements trace.Sink.
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
	return &Pipeline{
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
}

// Config returns the simulated machine description.
func (p *Pipeline) Config() Config { return p.cfg }

func (p *Pipeline) stall(c Cause, cycles int) {
	p.stats.Stalls[c] += uint64(cycles)
}

// Emit processes one native instruction.
func (p *Pipeline) Emit(e trace.Event) {
	p.stats.Instructions++
	p.step(e.PC, e.Addr, e.Kind, e.Flags)
}

// EmitBlock processes a whole event batch in one loop over the block's
// columns; the machine model is per-instruction, but the instruction
// count is per-block.
func (p *Pipeline) EmitBlock(b *trace.Block) {
	n := b.N
	p.stats.Instructions += uint64(n)
	addrs, kinds, flags := b.Addr[:n], b.Kind[:n], b.Flags[:n]
	for i, pc := range b.PC[:n] {
		p.step(pc, addrs[i], kinds[i], flags[i])
	}
}

// step simulates one native instruction past its issue slot, which
// Stats accounts from the instruction count.
func (p *Pipeline) step(pc, addr uint32, kind trace.Kind, flags trace.Flags) {
	st := &p.stats

	// Instruction fetch: every instruction consults the iTLB and L1I,
	// except that a fetch from the memoised page or line is a known hit.
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
				p.missObs.IMiss(trace.Event{PC: pc, Addr: addr, Kind: kind, Flags: flags}, level)
			}
		}
	}

	// Result-latency stalls: charged when this instruction consumes the
	// previous instruction's result.
	if flags&trace.FlagDep != 0 {
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
				p.missObs.DMiss(trace.Event{PC: pc, Addr: addr, Kind: kind, Flags: flags}, level)
			}
		}
	case trace.Branch:
		st.Branches++
		mis, btcMiss := p.pred.Cond(pc, addr, flags&trace.FlagTaken != 0)
		if mis {
			st.Mispredicts++
			p.stall(CauseMispredict, p.cfg.Mispredict)
		} else if btcMiss {
			p.stall(CauseOther, p.cfg.BTCBubble)
		}
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

// Run drains events from a replayable generator into a fresh pipeline and
// returns its stats.
func Run(cfg Config, generate func(sink trace.Sink)) Stats {
	p := New(cfg)
	generate(p)
	return p.Stats()
}
