package alphasim

import (
	"testing"
	"testing/quick"

	"interplab/internal/trace"
)

// TestCyclesLowerBound: cycles can never beat the issue width.
func TestCyclesLowerBound(t *testing.T) {
	f := func(n uint16) bool {
		st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
			for i := 0; i < int(n)+1; i++ {
				ba.Append(trace.Event{PC: uint32(i%32) * 4, Kind: trace.Int})
			}
		})
		return st.Cycles*2 >= st.Instructions && st.Cycles >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStallAccountingConservation: total cycles equal base issue cycles
// plus the recorded stall cycles.
func TestStallAccountingConservation(t *testing.T) {
	f := func(seed uint32, n uint16) bool {
		st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
			rng := seed | 1
			events := int(n) + 1
			for i := 0; i < events; i++ {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				e := trace.Event{
					PC:   (rng % (64 << 10)) &^ 3,
					Addr: rng >> 2 % (2 << 20),
					Kind: trace.Kind(rng % 9),
				}
				if rng&512 != 0 {
					e.Flags |= trace.FlagTaken
				}
				if rng&1024 != 0 {
					e.Flags |= trace.FlagDep
				}
				ba.Append(e)
				if rng&2048 != 0 {
					ba.Flush(trace.FlushAttr) // cut the block here
				}
			}
		})
		var stalls uint64
		for c := 0; c < NumCauses; c++ {
			stalls += st.Stalls[c]
		}
		base := (st.Instructions + 1) / 2
		return st.Cycles == base+stalls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTLBMissesAreCounted ties stall cycles to the miss counters.
func TestTLBMissesAreCounted(t *testing.T) {
	st := simulate(DefaultConfig(), func(ba *trace.Batcher) {
		for i := 0; i < 100; i++ {
			// 100 distinct instruction pages.
			ba.Append(trace.Event{PC: uint32(i) << 13, Kind: trace.Int})
		}
	})
	if st.ITLBMisses != 100 {
		t.Errorf("itlb misses = %d, want 100 (all distinct pages)", st.ITLBMisses)
	}
	if st.Stalls[CauseITLB] != 100*uint64(DefaultConfig().TLBMiss) {
		t.Errorf("itlb stall cycles = %d", st.Stalls[CauseITLB])
	}
}
