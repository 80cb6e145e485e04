package alphasim

import (
	"math"
	"testing"
	"testing/quick"

	"interplab/internal/trace"
)

// simulate runs a fresh pipeline for cfg over the events gen appends to a
// producer's batcher, which cuts a block wherever one fills or gen
// flushes, and returns the pipeline's stats.
func simulate(cfg Config, gen func(ba *trace.Batcher)) Stats {
	p := New(cfg)
	ba := trace.NewBatcher(p)
	gen(ba)
	ba.Flush(trace.FlushFinal)
	return p.Stats()
}

// emitOne hands e to s in a block of one event, the finest cut a producer
// can make; scratch carries it.
func emitOne(s trace.Sink, scratch *trace.Block, e trace.Event) {
	scratch.Reset()
	scratch.Append(e)
	s.EmitBlock(scratch)
}

func TestCauseString(t *testing.T) {
	want := map[Cause]string{
		CauseOther: "other", CauseShortInt: "short int", CauseLoadDelay: "load delay",
		CauseMispredict: "mispredict", CauseDTLB: "dtlb", CauseITLB: "itlb",
		CauseDMiss: "dmiss", CauseIMiss: "imiss",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("Cause(%d) = %q, want %q", c, c.String(), w)
		}
	}
	if Cause(99).String() != "invalid" {
		t.Error("out-of-range cause must stringify as invalid")
	}
}

func TestPipelineTightLoop(t *testing.T) {
	// A tiny loop of plain integer instructions: after warmup everything
	// hits, so CPI approaches 1/width = 0.5.
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for i := 0; i < 100000; i++ {
			ba.Append(trace.Event{PC: uint32(i%16) * 4, Kind: trace.Int})
		}
	})
	if st.Instructions != 100000 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
	if cpi := st.CPI(); cpi > 0.52 {
		t.Errorf("tight loop CPI = %.3f, want ~0.5", cpi)
	}
	if busy := st.BusyFrac(2); busy < 0.95 {
		t.Errorf("tight loop busy = %.3f, want ~1", busy)
	}
}

func TestPipelineICacheStalls(t *testing.T) {
	// A code footprint far beyond 8 KB, walked repeatedly: heavy imiss.
	span := uint32(64 << 10) // 64 KB of code
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for pass := 0; pass < 8; pass++ {
			for pc := uint32(0); pc < span; pc += 4 {
				ba.Append(trace.Event{PC: pc, Kind: trace.Int})
			}
		}
	})
	if st.IMisses1 == 0 {
		t.Fatal("expected L1I misses")
	}
	if st.StallFrac(CauseIMiss, 2) < 0.05 {
		t.Errorf("imiss stall fraction = %.3f, want noticeable", st.StallFrac(CauseIMiss, 2))
	}
	// Every line missing every pass (span >> cache): miss rate ~ 1/8 per
	// instruction (8 instructions per 32-byte line).
	per100 := st.IMissPer100()
	if per100 < 10 || per100 > 13 {
		t.Errorf("imiss per 100 = %.1f, want ~12.5", per100)
	}
}

func TestPipelineDCacheStalls(t *testing.T) {
	// Loads striding over 1 MB: misses in L1 and beyond L2 reach.
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for i := 0; i < 100000; i++ {
			addr := uint32(i*64) % (1 << 20)
			ba.Append(trace.Event{PC: 0x1000, Kind: trace.Load, Addr: addr})
		}
	})
	if st.DMisses1 == 0 {
		t.Fatal("expected data cache misses")
	}
	if st.StallFrac(CauseDMiss, 2) <= 0 {
		t.Error("expected dmiss stalls")
	}
	if st.DTLBMisses == 0 {
		t.Error("1 MB stride should overflow a 32-entry dTLB")
	}
}

func TestPipelineLoadDelayRequiresDep(t *testing.T) {
	loadUse := func(use trace.Flags) Stats {
		return simulate(DefaultConfig(), func(ba *trace.Batcher) {
			for i := 0; i < 1000; i++ {
				ba.Append(trace.Event{PC: 0, Kind: trace.Load, Addr: uint32(i%8) * 4})
				ba.Append(trace.Event{PC: 4, Kind: trace.Int, Flags: use})
			}
		})
	}
	if got := loadUse(0).Stalls[CauseLoadDelay]; got != 0 {
		t.Errorf("independent loads must not stall: %d", got)
	}
	if got := loadUse(trace.FlagDep).Stalls[CauseLoadDelay]; got == 0 {
		t.Error("dependent loads must stall")
	}
}

func TestPipelineShortIntStall(t *testing.T) {
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for i := 0; i < 100; i++ {
			ba.Append(trace.Event{PC: 0, Kind: trace.ShortInt})
			ba.Append(trace.Event{PC: 4, Kind: trace.Int, Flags: trace.FlagDep})
		}
	})
	if st.Stalls[CauseShortInt] != 100 {
		t.Errorf("short-int stalls = %d, want 100", st.Stalls[CauseShortInt])
	}
}

func TestPipelineMispredictStall(t *testing.T) {
	// Alternating branch at one PC: 1-bit predictor always wrong.
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for i := 0; i < 100; i++ {
			fl := trace.Flags(0)
			if i%2 == 0 {
				fl = trace.FlagTaken
			}
			ba.Append(trace.Event{PC: 0x100, Addr: 0x80, Kind: trace.Branch, Flags: fl})
		}
	})
	if st.Mispredicts < 99 {
		t.Errorf("mispredicts = %d, want >=99", st.Mispredicts)
	}
	if st.Stalls[CauseMispredict] == 0 {
		t.Error("expected mispredict stalls")
	}
}

func TestPipelineITLBSensitivity(t *testing.T) {
	// The paper: growing the iTLB from 8 to 32 entries effectively
	// eliminates iTLB stalls for code spanning a dozen pages.
	gen := func(ba *trace.Batcher) {
		for pass := 0; pass < 2000; pass++ {
			for pg := 0; pg < 12; pg++ {
				for i := 0; i < 16; i++ {
					ba.Append(trace.Event{PC: uint32(pg)<<13 + uint32(i*4), Kind: trace.Int})
				}
			}
		}
	}
	small := DefaultConfig()
	big := DefaultConfig()
	big.ITLBEntries = 32
	s1 := simulate(small, gen)
	s2 := simulate(big, gen)
	if s1.ITLBMisses <= s2.ITLBMisses {
		t.Errorf("8-entry iTLB misses (%d) should exceed 32-entry (%d)", s1.ITLBMisses, s2.ITLBMisses)
	}
	if s2.StallFrac(CauseITLB, 2) > 0.01 {
		t.Errorf("32-entry iTLB stall frac = %.4f, want ~0", s2.StallFrac(CauseITLB, 2))
	}
}

func TestStatsFractionsSumToOne(t *testing.T) {
	// Property: busy + all stall fractions (with Other as residual)
	// accounts for every issue slot.
	f := func(seed uint8, n uint16) bool {
		st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
			rng := uint32(seed) + 1
			for i := 0; i < int(n)+10; i++ {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				k := trace.Kind(rng % 9)
				e := trace.Event{PC: (rng % 65536) &^ 3, Addr: (rng >> 3) % (1 << 20), Kind: k}
				if rng&16 != 0 {
					e.Flags |= trace.FlagTaken
				}
				if rng&32 != 0 {
					e.Flags |= trace.FlagDep
				}
				ba.Append(e)
				if rng&64 != 0 {
					ba.Flush(trace.FlushAttr) // cut the block here
				}
			}
		})
		sum := st.BusyFrac(2) + st.OtherFrac(2)
		for c := 0; c < NumCauses; c++ {
			if Cause(c) != CauseOther {
				sum += st.StallFrac(Cause(c), 2)
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ICache.Size != 8<<10 || cfg.ICache.Assoc != 1 {
		t.Error("L1I must be 8KB direct-mapped")
	}
	if cfg.DCache.Size != 8<<10 || cfg.DCache.Assoc != 1 {
		t.Error("L1D must be 8KB direct-mapped")
	}
	if cfg.L2.Size != 512<<10 {
		t.Error("L2 must be 512KB")
	}
	if cfg.ITLBEntries != 8 || cfg.DTLBEntries != 32 {
		t.Error("TLBs must be 8/32 entries")
	}
	if cfg.BHTEntries != 256 || cfg.ReturnStack != 12 || cfg.BTCEntries != 32 {
		t.Error("branch logic must match Table 3")
	}
	if cfg.TLBMiss != 40 || cfg.Mispredict != 4 {
		t.Error("penalties must match Table 3")
	}
	if cfg.L1Miss+cfg.L2Miss != 30 {
		t.Error("memory latency must be 30 cycles as in Table 3")
	}
}
