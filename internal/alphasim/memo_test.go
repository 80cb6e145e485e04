package alphasim

import (
	"math/rand"
	"testing"

	"interplab/internal/trace"
)

// refPipeline is the test oracle for Pipeline: the simulator as it was
// before the MRU memo, with every fetch and data access looked up in its
// TLB and L1, and Cycles and IFetches accumulated event by event.
// FuzzPipelineMemo requires the two to agree on every stream.
type refPipeline struct {
	cfg    Config
	icache *Cache
	dcache *Cache
	l2     *Cache
	itlb   *TLB
	dtlb   *TLB
	pred   *Predictor

	stats    Stats
	prevKind trace.Kind
	prevHit  bool // previous load hit L1
	pending  uint64

	missObs MissObserver
}

func newRefPipeline(cfg Config) *refPipeline {
	return &refPipeline{
		cfg:    cfg,
		icache: NewCache(cfg.ICache),
		dcache: NewCache(cfg.DCache),
		l2:     NewCache(cfg.L2),
		itlb:   NewTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb:   NewTLB(cfg.DTLBEntries, cfg.PageSize),
		pred:   NewPredictor(cfg.BHTEntries, cfg.ReturnStack, cfg.BTCEntries),
	}
}

func (p *refPipeline) Stats() Stats { return p.stats }

func (p *refPipeline) stall(c Cause, cycles int) {
	p.stats.Stalls[c] += uint64(cycles)
	p.stats.Cycles += uint64(cycles)
}

func (p *refPipeline) Emit(e trace.Event) { p.step(e) }

func (p *refPipeline) EmitBlock(b *trace.Block) {
	for i := 0; i < b.N; i++ {
		p.step(trace.Event{PC: b.PC[i], Addr: b.Addr[i], Kind: b.Kind[i], Flags: b.Flags[i]})
	}
}

func (p *refPipeline) step(e trace.Event) {
	st := &p.stats
	st.Instructions++
	// Base issue: `Width` instructions retire per cycle when nothing
	// stalls.  The cycle is charged to the first instruction of each
	// group so a trailing partial group still owns a cycle.
	p.pending++
	if p.pending == 1 {
		st.Cycles++
	}
	if p.pending >= uint64(p.cfg.Width) {
		p.pending = 0
	}

	// Instruction fetch: every instruction consults the iTLB and L1I; the
	// line-grain locality is captured by the caches themselves.
	st.IFetches++
	if !p.itlb.Access(e.PC) {
		st.ITLBMisses++
		p.stall(CauseITLB, p.cfg.TLBMiss)
	}
	if !p.icache.Access(e.PC) {
		st.IMisses1++
		p.stall(CauseIMiss, p.cfg.L1Miss)
		level := 1
		if !p.l2.Access(e.PC) {
			st.IMisses2++
			p.stall(CauseIMiss, p.cfg.L2Miss)
			level = 2
		}
		if p.missObs != nil {
			p.missObs.IMiss(e, level)
		}
	}

	// Result-latency stalls: charged when this instruction consumes the
	// previous instruction's result.
	if e.Dep() {
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

	switch e.Kind {
	case trace.Load, trace.Store:
		st.DAccesses++
		if !p.dtlb.Access(e.Addr) {
			st.DTLBMisses++
			p.stall(CauseDTLB, p.cfg.TLBMiss)
		}
		hit := p.dcache.Access(e.Addr)
		p.prevHit = hit
		if !hit {
			st.DMisses1++
			p.stall(CauseDMiss, p.cfg.L1Miss)
			level := 1
			if !p.l2.Access(e.Addr) {
				st.DMisses2++
				p.stall(CauseDMiss, p.cfg.L2Miss)
				level = 2
			}
			if p.missObs != nil {
				p.missObs.DMiss(e, level)
			}
		}
	case trace.Branch:
		st.Branches++
		mis, btcMiss := p.pred.Cond(e.PC, e.Addr, e.Taken())
		if mis {
			st.Mispredicts++
			p.stall(CauseMispredict, p.cfg.Mispredict)
		} else if btcMiss {
			p.stall(CauseOther, p.cfg.BTCBubble)
		}
	case trace.Jump:
		if e.Call() {
			p.pred.Call(e.PC + 4)
		}
		p.stall(CauseOther, p.cfg.BTCBubble)
	case trace.Return:
		if p.pred.Ret(e.Addr) {
			st.Mispredicts++
			p.stall(CauseMispredict, p.cfg.Mispredict)
		}
	}
	p.prevKind = e.Kind
}

// missCall is one MissObserver call; missLog records them in order.
type missCall struct {
	data  bool
	e     trace.Event
	level int
}

type missLog []missCall

func (l *missLog) IMiss(e trace.Event, level int) { *l = append(*l, missCall{false, e, level}) }
func (l *missLog) DMiss(e trace.Event, level int) { *l = append(*l, missCall{true, e, level}) }

// memoGeometry decodes the first three bytes of a FuzzPipelineMemo input
// into a machine: per-cache line size and associativity, page size, iTLB
// size and issue width.  Zero bytes give the Table 3 machine.
func memoGeometry(g [3]byte) Config {
	lines := [3]int{32, 16, 64}
	assocs := [3]int{1, 2, 4}
	cfg := DefaultConfig()
	for i, c := range []*CacheConfig{&cfg.ICache, &cfg.DCache, &cfg.L2} {
		place := [3]int{1, 3, 9}[i] // cache i reads base-3 digit i
		c.LineSize = lines[int(g[0])/place%3]
		c.Assoc = assocs[int(g[1])/place%3]
	}
	cfg.PageSize = [3]uint32{8 << 10, 4 << 10, 16 << 10}[g[2]%3]
	cfg.ITLBEntries = [2]int{8, 32}[g[2]/3%2]
	cfg.Width = [3]int{2, 1, 3}[g[2]/6%3]
	return cfg
}

// checkMemo feeds events to the memoised Pipeline one event at a time, in
// blocks cut after each index in cuts (and wherever a block fills), and
// alternating the two between cuts; the oracle gets the alternating feed.
// Every memoised run must report the oracle's Stats and MissObserver
// calls.
func checkMemo(t *testing.T, cfg Config, events []trace.Event, cuts map[int]bool) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("test geometry is invalid: %v", err)
	}
	type sink interface {
		trace.Sink
		trace.BlockSink
		Stats() Stats
	}
	type run struct {
		name string
		p    sink
		mode int // 0 per event, 1 blocks, 2 alternating
		log  missLog
	}
	oracle := &run{name: "oracle", mode: 2}
	ref := newRefPipeline(cfg)
	ref.missObs = &oracle.log
	oracle.p = ref
	runs := []*run{oracle}
	for mode, feed := range []string{"Emit", "EmitBlock", "mixed"} {
		r := &run{name: "memo/" + feed, mode: mode}
		p := New(cfg)
		p.SetMissObserver(&r.log)
		r.p = p
		runs = append(runs, r)
	}
	b, segment := new(trace.Block), 0
	flush := func() {
		for _, r := range runs {
			if r.mode == 1 || r.mode == 2 && segment%2 == 0 {
				r.p.EmitBlock(b)
			} else if r.mode == 2 {
				for i := 0; i < b.N; i++ {
					r.p.Emit(b.Event(i))
				}
			}
		}
		segment++
		b.Reset()
	}
	for i, e := range events {
		for _, r := range runs {
			if r.mode == 0 {
				r.p.Emit(e)
			}
		}
		b.Append(e)
		if b.Full() || cuts[i] {
			flush()
		}
	}
	flush()
	want, wantLog := runs[0].p.Stats(), runs[0].log
	for _, r := range runs[1:] {
		if got := r.p.Stats(); got != want {
			t.Errorf("%s: Stats\n got %+v\nwant %+v", r.name, got, want)
		}
		if len(r.log) != len(wantLog) {
			t.Errorf("%s: %d miss calls, oracle made %d", r.name, len(r.log), len(wantLog))
			continue
		}
		for i := range wantLog {
			if r.log[i] != wantLog[i] {
				t.Errorf("%s: miss call %d is %+v, oracle's is %+v", r.name, i, r.log[i], wantLog[i])
				break
			}
		}
	}
}

// encodeLoopy writes geom and then a loopyStream's fetches and cuts in
// decodeStream's coding.  Each jump becomes a plain jump, a taken branch,
// a call or a return, and about one fetch in dataEvery becomes a load or
// store near the previous data word or anywhere in the 256 KB data window,
// marked dependent about half the time.
func encodeLoopy(rng *rand.Rand, geom [3]byte, pcs []uint32, cuts map[int]bool, dataEvery int) []byte {
	out := geom[:]
	pc, run, word := uint32(streamCode), 0, uint32(0)
	flush := func(cut bool) {
		for run > 0 {
			k := min(run, 64)
			run -= k
			op := byte(k - 1)
			if cut && run == 0 {
				op |= 0x40
			}
			out = append(out, op)
		}
	}
	addr := func(op byte, w uint32) {
		out = append(out, op, byte(w>>8), byte(w))
	}
	for i, want := range pcs {
		if want != pc {
			flush(false)
			addr(0x80|[4]byte{0, 3 | 8, 4 | 8, 5}[rng.Intn(4)], (want-streamCode)>>2)
			pc = want
		}
		if rng.Intn(dataEvery) == 0 {
			flush(false)
			if rng.Intn(2) == 0 {
				word = uint32(rng.Intn(64 << 10))
			} else {
				word = (word + uint32(rng.Intn(16))) & 0xffff
			}
			op := byte(0x80 + 1 + rng.Intn(2))
			if rng.Intn(2) == 0 {
				op |= 0x20
			}
			if cuts[i] {
				op |= 0x40
			}
			addr(op, word)
		} else {
			run++
			if cuts[i] {
				flush(true)
			}
		}
		pc += 4
	}
	flush(false)
	return out
}

// TestPipelineMemoAddressExtremes: the memo's "no previous access" state
// collides with no address, even with 1-byte lines, where line numbers
// span the whole 32-bit space: the first access to address 0 and accesses
// at the top of the space are looked up as the oracle looks them up.
func TestPipelineMemoAddressExtremes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ICache.LineSize, cfg.DCache.LineSize, cfg.PageSize = 1, 1, 1
	top := ^uint32(0)
	events := []trace.Event{
		{PC: 0, Addr: 0, Kind: trace.Load},
		{PC: 0, Addr: 0, Kind: trace.Store},
		{PC: top, Addr: top, Kind: trace.Load},
		{PC: top, Addr: top, Kind: trace.Store, Flags: trace.FlagDep},
		{PC: 0, Addr: 0, Kind: trace.Load},
	}
	checkMemo(t, cfg, events, nil)
	checkMemo(t, DefaultConfig(), events, map[int]bool{1: true})
}

// FuzzPipelineMemo checks that the MRU memo is exact: on any stream of
// fetches, data accesses, branches, calls and returns, over caches with
// 16- to 64-byte lines and 1 to 4 ways, 4 to 16 KB pages, an 8- or
// 32-entry iTLB and issue widths 1 to 3, the memoised Pipeline reports the
// oracle's Stats and miss calls however the stream is cut into blocks.
func FuzzPipelineMemo(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ws := (4 << 10) << rng.Intn(6) // 4 KB .. 128 KB
		pcs, cuts := loopyStream(rng, 1500, ws, 4+rng.Intn(40), 1+rng.Intn(600))
		geom := [3]byte{byte(rng.Intn(27)), byte(rng.Intn(27)), byte(rng.Intn(18))}
		f.Add(encodeLoopy(rng, geom, pcs, cuts, 2+rng.Intn(6)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var geom [3]byte
		n := copy(geom[:], data)
		events, cuts := decodeStream(data[n:])
		checkMemo(t, memoGeometry(geom), events, cuts)
	})
}
