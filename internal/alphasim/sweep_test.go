package alphasim

import (
	"fmt"
	"math/rand"
	"testing"

	"interplab/internal/trace"
)

// referenceSweep is the per-geometry oracle ICacheSweep must agree with:
// one true-LRU Cache per point, each probed with every fetch.
func referenceSweep(sizesKB, assocs []int, lineSize int, pcs []uint32) []SweepPoint {
	var points []SweepPoint
	for _, kb := range sizesKB {
		for _, a := range assocs {
			c := NewCache(CacheConfig{Size: kb << 10, LineSize: lineSize, Assoc: a})
			for _, pc := range pcs {
				c.Access(pc)
			}
			points = append(points, SweepPoint{SizeKB: kb, Assoc: a, Instructions: c.Accesses, Misses: c.Misses})
		}
	}
	return points
}

// sweepGrid is one geometry grid the differential checks run.
type sweepGrid struct {
	name     string
	sizesKB  []int
	assocs   []int
	lineSize int
}

var sweepGrids = []sweepGrid{
	{"default", []int{8, 16, 32, 64}, []int{1, 2, 4}, 32},
	{"stress", []int{8, 16}, []int{1, 2}, 32},
	{"16B-lines", []int{4, 8, 16, 32}, []int{1, 2, 4, 8}, 16},
	{"64B-lines", []int{8, 16, 32, 64}, []int{1, 2, 4}, 64},
}

// checkSweep feeds events to five ICacheSweeps over grid — in blocks cut
// after each index in cuts (and wherever a block fills), in blocks of one
// event, alternating the two between cuts, and packed into stretch rows
// (packStretches) one row per block and in blocks cut as above — and
// reports any point that differs from the per-geometry reference.
func checkSweep(t *testing.T, g sweepGrid, events []trace.Event, cuts map[int]bool) {
	t.Helper()
	pcs := make([]uint32, len(events))
	for i, e := range events {
		pcs[i] = e.PC
	}
	want := referenceSweep(g.sizesKB, g.assocs, g.lineSize, pcs)
	blocked := NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
	oneEvent := NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
	mixed := NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
	stretchRows := NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
	stretchBlocks := NewICacheSweep(g.sizesKB, g.assocs, g.lineSize)
	b, one, segment := new(trace.Block), new(trace.Block), 0
	flush := func() {
		blocked.EmitBlock(b)
		if segment%2 == 0 {
			mixed.EmitBlock(b)
		} else {
			for _, e := range b.AppendEvents(nil) {
				emitOne(mixed, one, e)
			}
		}
		segment++
		b.Reset()
	}
	for i, e := range events {
		emitOne(oneEvent, one, e)
		b.Append(e)
		if b.Full() || cuts[i] {
			flush()
		}
	}
	flush()
	rows := packStretches(events, cuts)
	emitRows(stretchRows, rows, cuts, true)
	emitRows(stretchBlocks, rows, cuts, false)
	for _, s := range []struct {
		path  string
		sweep *ICacheSweep
	}{{"blocks", blocked}, {"one-event", oneEvent}, {"mixed", mixed},
		{"stretch-rows", stretchRows}, {"stretch-blocks", stretchBlocks}} {
		got := s.sweep.Points()
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d points, want %d", g.name, s.path, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s/%s: %s = %d instr %d misses, reference %d instr %d misses",
					g.name, s.path, want[i].Label(), got[i].Instructions, got[i].Misses,
					want[i].Instructions, want[i].Misses)
			}
		}
	}
}

// loopyStream returns n fetch addresses that run sequentially through a
// working set of ws bytes and jump to a random instruction in it about
// once in jumpEvery fetches, with block cuts about once in cutEvery.
func loopyStream(rng *rand.Rand, n, ws, jumpEvery, cutEvery int) ([]uint32, map[int]bool) {
	const base = 0x0040_0000
	pcs := make([]uint32, n)
	cuts := make(map[int]bool)
	off := 0
	for i := range pcs {
		if rng.Intn(jumpEvery) == 0 {
			off = rng.Intn(ws) &^ 3
		}
		pcs[i] = uint32(base + off)
		off = (off + 4) % ws
		if rng.Intn(cutEvery) == 0 {
			cuts[i] = true
		}
	}
	return pcs, cuts
}

// TestICacheSweepMatchesPerGeometryLRU: the one-pass sweep reports, for
// every point of every grid, exactly the counts of a separate true-LRU
// cache, whether the stream arrives in cut blocks, in blocks of one event,
// or both in turn.
func TestICacheSweepMatchesPerGeometryLRU(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ws := (4 << 10) << rng.Intn(6) // 4 KB .. 128 KB
		pcs, cuts := loopyStream(rng, 30000, ws, 4+rng.Intn(40), 1+rng.Intn(3000))
		events := make([]trace.Event, len(pcs))
		for i, pc := range pcs {
			events[i] = trace.Event{PC: pc, Kind: trace.Int}
		}
		for _, g := range sweepGrids {
			t.Run(fmt.Sprintf("seed%d/%s", seed, g.name), func(t *testing.T) {
				checkSweep(t, g, events, cuts)
			})
		}
	}
}

// decodeSweepInput turns fuzz bytes into a grid, an event stream and
// block cuts.  The first byte picks the grid; the rest is a decodeStream
// stream, of which the sweep sees the fetches.
func decodeSweepInput(data []byte) (sweepGrid, []trace.Event, map[int]bool) {
	if len(data) == 0 {
		return sweepGrids[0], nil, nil
	}
	events, cuts := decodeStream(data[1:])
	return sweepGrids[int(data[0])%len(sweepGrids)], events, cuts
}

// Windows of decodeStream's two-byte operands: 64K words each.
const streamCode, streamData = 0x0040_0000, 0x1000_0000

// decodeStream turns fuzz bytes into an event stream and block cuts.  Each
// op byte either runs (op&0x3f)+1 sequential Int fetches (op < 0x80) or
// names, with its next two bytes, an instruction in a 256 KB code window
// or a word in a 256 KB data window.  For the latter, k = op&0x3f picks
// the event; k&7 is
//
//	0: jump to the instruction, with no event
//	1: load from the word    2: store to it
//	3: branch to the instruction, taken when k&8
//	4: jump to it, a call when k&8
//	5: return to it
//	6: ShortInt (Int when k&8)
//	7: Mul (Float when k&8)
//
// and k&0x20 marks the event FlagDep.  op&0x40 cuts the block after the op.
func decodeStream(data []byte) ([]trace.Event, map[int]bool) {
	const maxEvents = 1 << 16
	var events []trace.Event
	cuts := make(map[int]bool)
	pc := uint32(streamCode)
	for i := 0; i < len(data) && len(events) < maxEvents; i++ {
		op := data[i]
		if op&0x80 == 0 {
			for k := 0; k <= int(op&0x3f) && len(events) < maxEvents; k++ {
				events = append(events, trace.Event{PC: pc, Kind: trace.Int})
				pc += 4
			}
		} else if i+2 < len(data) {
			k := op & 0x3f
			word := (uint32(data[i+1])<<8 | uint32(data[i+2])) << 2
			target := streamCode + word
			i += 2
			e, alt, next := trace.Event{PC: pc}, k&8 != 0, pc+4
			switch k & 7 {
			case 0:
				next = target
			case 1, 2:
				e.Kind, e.Addr = trace.Load, streamData+word
				if k&7 == 2 {
					e.Kind = trace.Store
				}
			case 3:
				e.Kind, e.Addr = trace.Branch, target
				if alt {
					e.Flags |= trace.FlagTaken
					next = target
				}
			case 4:
				e.Kind, e.Addr, next = trace.Jump, target, target
				if alt {
					e.Flags |= trace.FlagCall
				}
			case 5:
				e.Kind, e.Addr, next = trace.Return, target, target
			case 6:
				e.Kind = trace.ShortInt
				if alt {
					e.Kind = trace.Int
				}
			case 7:
				e.Kind = trace.Mul
				if alt {
					e.Kind = trace.Float
				}
			}
			if k&7 != 0 {
				if k&0x20 != 0 {
					e.Flags |= trace.FlagDep
				}
				events = append(events, e)
			}
			pc = next
		}
		if op&0x40 != 0 && len(events) > 0 {
			cuts[len(events)-1] = true
		}
	}
	return events, cuts
}

// FuzzICacheSweep checks the one-pass sweep against the per-geometry
// reference on arbitrary streams of sequential runs, jumps and block cuts,
// fed one row per event and in stretch rows.
func FuzzICacheSweep(f *testing.F) {
	f.Add([]byte{})
	// A 64-fetch loop, cut mid-run.
	f.Add([]byte{0, 0x3f, 0x80, 0x00, 0x00, 0x7f, 0x80, 0x00, 0x00, 0x3f})
	// Two lines 8 KB apart: they conflict in every direct-mapped 8 KB cache.
	f.Add([]byte{1, 0x07, 0xc0, 0x08, 0x00, 0x07, 0x80, 0x00, 0x00, 0x47, 0x80, 0x08, 0x00, 0x07})
	// A 16 KB straight run, then back to its start: fits some geometries only.
	run := []byte{2}
	for i := 0; i < 64; i++ {
		run = append(run, 0x3f)
	}
	run = append(run, 0xc0, 0x00, 0x00, 0x3f, 0x3f)
	f.Add(run)
	// Jumps over the whole window in the 64-byte-line grid.
	f.Add([]byte{3, 0x80, 0xff, 0xff, 0x03, 0x80, 0x40, 0x01, 0x43, 0x80, 0x00, 0x10, 0x03, 0x80, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, events, cuts := decodeSweepInput(data)
		checkSweep(t, g, events, cuts)
	})
}

// TestICacheSweepRejectsNonPowerOfTwoSets: the stacks' cascade needs each
// set count to split every smaller one, so a grid that breaks bit
// selection must fail loudly rather than miscount.
func TestICacheSweepRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("24KB/1way (768 sets) was accepted")
		}
	}()
	NewICacheSweep([]int{8, 24}, []int{1}, 32)
}

func TestICacheSweepOrdering(t *testing.T) {
	// True LRU with bit-selection indexing has exact inclusion: on the same
	// stream a cache never misses more than one with the same associativity
	// and twice the sets (each of its sets splits in two), nor more than one
	// with the same sets and more ways.
	sweep := DefaultICacheSweep()
	ba := trace.NewBatcher(sweep)
	rng := uint32(12345)
	for i := 0; i < 200000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		// 48 KB working set with loop structure.
		pc := (rng % (48 << 10)) &^ 3
		ba.Append(trace.Event{PC: pc, Kind: trace.Int})
	}
	ba.Flush(trace.FlushFinal)
	misses := func(kb, assoc int) uint64 {
		pt, ok := sweep.Point(kb, assoc)
		if !ok {
			t.Fatalf("missing point %d/%d", kb, assoc)
		}
		return pt.Misses
	}
	type geom struct{ kb, assoc int }
	chains := [][]geom{
		// Set refinement at each associativity.
		{{8, 1}, {16, 1}, {32, 1}, {64, 1}},
		{{8, 2}, {16, 2}, {32, 2}, {64, 2}},
		{{8, 4}, {16, 4}, {32, 4}, {64, 4}},
		// More ways over the same sets.
		{{8, 1}, {16, 2}, {32, 4}},
		{{16, 1}, {32, 2}, {64, 4}},
		{{8, 2}, {16, 4}},
		{{32, 1}, {64, 2}},
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			small, big := chain[i-1], chain[i]
			if m, prev := misses(big.kb, big.assoc), misses(small.kb, small.assoc); m > prev {
				t.Errorf("%dKB/%dway misses %d > %dKB/%dway misses %d",
					big.kb, big.assoc, m, small.kb, small.assoc, prev)
			}
		}
	}
	if len(sweep.Points()) != 12 {
		t.Errorf("points = %d, want 12", len(sweep.Points()))
	}
	if _, ok := sweep.Point(128, 1); ok {
		t.Error("unknown geometry must not resolve")
	}
}

// BenchmarkICacheSweepBlock replays a fixed synthetic looping stream — an
// interpreter-like dispatch loop over 256 routines in a 48 KB footprint —
// through the default sweep in trace.Blocks, and reports the sink's own
// cost per event, with no guest in the loop.
func BenchmarkICacheSweepBlock(b *testing.B) {
	const nBlocks = 64
	rng := rand.New(rand.NewSource(1))
	var starts [256]uint32
	for i := range starts {
		starts[i] = 0x0040_0000 + uint32(rng.Intn(48<<10))&^3
	}
	blocks := make([]trace.Block, nBlocks)
	pc := starts[0]
	for i := range blocks {
		for !blocks[i].Full() {
			if rng.Intn(12) == 0 {
				pc = starts[rng.Intn(len(starts))]
			}
			blocks[i].Append(trace.Event{PC: pc, Kind: trace.Int})
			pc += 4
		}
	}
	sweep := DefaultICacheSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range blocks {
			sweep.EmitBlock(&blocks[k])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nBlocks*trace.BlockCap), "ns/event")
}
