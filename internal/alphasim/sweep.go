package alphasim

import (
	"fmt"
	"sort"
	"strings"

	"interplab/internal/trace"
)

// SweepPoint is one (size, associativity) instruction-cache configuration in
// a Figure 4 sweep.
type SweepPoint struct {
	SizeKB int `json:"size_kb"`
	Assoc  int `json:"assoc"`

	Instructions uint64 `json:"instructions"`
	Misses       uint64 `json:"misses"`
}

// MissPer100 returns misses per 100 instructions, Figure 4's y-axis.
func (pt SweepPoint) MissPer100() float64 {
	if pt.Instructions == 0 {
		return 0
	}
	return 100 * float64(pt.Misses) / float64(pt.Instructions)
}

// Label returns a short identifier such as "16KB/2way".
func (pt SweepPoint) Label() string { return fmt.Sprintf("%dKB/%dway", pt.SizeKB, pt.Assoc) }

// ICacheSweep simulates many true-LRU instruction-cache geometries, all
// with one line size, in a single pass over one event stream, so Figure 4
// needs only one run per workload.  It is a trace.Sink: it takes the
// stream in blocks, however the producer cuts them.
//
// It gets every geometry from stack-distance simulation (Mattson et al.
// 1970; Hill & Smith 1989) rather than one cache per point:
//
//   - Same-line filter.  A fetch from the same line as the fetch before it
//     hits in every geometry and leaves every LRU order as it was, so it
//     only counts as an instruction.  The filter carries across blocks.
//   - One LRU stack per distinct set count.  Each set keeps its lines most
//     recently used first, as deep as the largest associativity sharing the
//     set count.  An A-way cache with that set count holds exactly the top
//     A lines of each set's stack.  The stacks run from fewest sets to
//     most: each set of a stack splits into sets of the next, so a line on
//     top of its set in one stack is on top in every later one, and the
//     later stacks skip that access.
//   - Depth histogram.  Each access is counted at the depth its line was
//     found, or as not found, so point (S, A) misses on the accesses found
//     at depth A or deeper plus those not found at all.
//
// The default grid's 12 points need six stacks (64 to 2048 sets).
type ICacheSweep struct {
	points    []SweepPoint
	lineSize  int
	lineShift uint
	stacks    []lruStack // by ascending set count

	// last is the tag (line+1) of the previous fetch; 0 before the first.
	last uint32
	// tags is EmitBlock's scratch column: the block's fetches still to
	// simulate, same-line repeats dropped.  It holds rowTags per row.
	tags []uint32
}

// rowTags bounds the lines one block row fetches from: a plain row's one,
// or the lines a MaxStretch-instruction stretch can span.
func rowTags(lineShift uint) int {
	return min(trace.MaxStretch, (trace.MaxStretch-1)*4>>lineShift+2)
}

// lruStack is one Mattson LRU stack per set for one set count.
type lruStack struct {
	mask  uint32
	depth int
	// tags holds depth entries per set, most recently used first; a tag is
	// line+1, so 0 marks an empty entry, and empties sit at a set's tail.
	tags []uint32
	// points indexes the sweep points with this set count.
	points []int
	// hist[d] counts accesses found at depth d, hist[depth] those not found.
	hist []uint64
}

// access moves tag to the top of its set and returns the depth it was
// found at, or st.depth when it was not in the set's top st.depth lines.
func (st *lruStack) access(tag uint32) int {
	set := st.tags[int((tag-1)&st.mask)*st.depth:][:st.depth]
	if set[0] == tag {
		return 0
	}
	d := 1
	for d < len(set) && set[d] != tag {
		d++
	}
	for i := min(d, len(set)-1); i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = tag
	return d
}

// charge adds the misses recorded in st.hist to every point of the stack
// and clears the histogram: an A-way point misses on every access at depth
// A or deeper, the not-found slot included.
func (st *lruStack) charge(points []SweepPoint) {
	for _, p := range st.points {
		var misses uint64
		for _, n := range st.hist[points[p].Assoc:] {
			misses += n
		}
		points[p].Misses += misses
	}
	clear(st.hist)
}

// NewICacheSweep builds a sweep over the cross product of sizes (in KB) and
// associativities, with the given line size in bytes.  As for Cache, the
// line size and every set count must be powers of two; NewICacheSweep
// panics on a set count that is not.
func NewICacheSweep(sizesKB, assocs []int, lineSize int) *ICacheSweep {
	s := &ICacheSweep{lineSize: lineSize}
	for 1<<s.lineShift < lineSize {
		s.lineShift++
	}
	s.tags = make([]uint32, trace.BlockCap*rowTags(s.lineShift))
	bySets := make(map[int]*lruStack)
	for _, kb := range sizesKB {
		for _, a := range assocs {
			sets := CacheConfig{Size: kb << 10, LineSize: lineSize, Assoc: a}.Sets()
			if sets&(sets-1) != 0 {
				panic(fmt.Sprintf("alphasim: %dKB/%dway with %dB lines has %d sets, not a power of two", kb, a, lineSize, sets))
			}
			st, ok := bySets[sets]
			if !ok {
				st = &lruStack{mask: uint32(sets - 1)}
				bySets[sets] = st
			}
			st.depth = max(st.depth, a)
			st.points = append(st.points, len(s.points))
			s.points = append(s.points, SweepPoint{SizeKB: kb, Assoc: a})
		}
	}
	for sets, st := range bySets {
		st.tags = make([]uint32, sets*st.depth)
		st.hist = make([]uint64, st.depth+1)
		s.stacks = append(s.stacks, *st)
	}
	sort.Slice(s.stacks, func(i, j int) bool { return s.stacks[i].mask < s.stacks[j].mask })
	return s
}

// DefaultICacheSweep returns the paper's Figure 4 grid: 8/16/32/64 KB ×
// direct-mapped/2-way/4-way, 32-byte lines.
func DefaultICacheSweep() *ICacheSweep {
	return NewICacheSweep([]int{8, 16, 32, 64}, []int{1, 2, 4}, 32)
}

// EmitBlock simulates a whole batch.  It first compacts the block's
// fetches into line tags, dropping same-line repeats: a plain row fetches
// from its PC, and a stretch row from every line between its first
// instruction and its last.  It then streams that column through one LRU
// stack at a time, so each stack's state stays hot while the tags arrive
// as a sequential array scan.  Each stack drops the tags it found on top
// before handing the column to the next.  The per-point counters are
// updated once per block instead of once per event.
func (s *ICacheSweep) EmitBlock(b *trace.Block) {
	tags, last, n := s.tags, s.last, 0
	lens := b.Len[:b.N]
	for i, pc := range b.PC[:b.N] {
		end := pc
		if l := lens[i]; l > 1 {
			end += uint32(l-1) * 4
		}
		for a := pc; ; {
			tag := a>>s.lineShift + 1
			if tag != last {
				tags[n] = tag
				n++
				last = tag
			}
			next := nextUnit(a, s.lineShift)
			if end-a < next {
				break
			}
			a += next
		}
	}
	s.last = last
	for i := range s.stacks {
		st := &s.stacks[i]
		kept := 0
		for _, tag := range tags[:n] {
			d := st.access(tag)
			st.hist[d]++
			if d != 0 {
				tags[kept] = tag
				kept++
			}
		}
		n = kept
		st.charge(s.points)
	}
	for i := range s.points {
		s.points[i].Instructions += uint64(b.Insts)
	}
}

// Points returns the accumulated sweep results.
func (s *ICacheSweep) Points() []SweepPoint { return s.points }

// Geometry returns a canonical description of the sweep's configuration
// grid — "8KB/1way,8KB/2way,...@32B" — independent of any accumulated
// counts.  The measurement cache uses it as the sweep part of its key: two
// sweeps with equal geometry over the same program accumulate identical
// points.
func (s *ICacheSweep) Geometry() string {
	var b strings.Builder
	for i, pt := range s.points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pt.Label())
	}
	fmt.Fprintf(&b, "@%dB", s.lineSize)
	return b.String()
}

// RestorePoints overwrites the sweep's accumulated counts with pts, e.g.
// from a cached measurement.  It reports whether pts matches the sweep's
// geometry point for point; on a mismatch the sweep is left untouched.
func (s *ICacheSweep) RestorePoints(pts []SweepPoint) bool {
	if len(pts) != len(s.points) {
		return false
	}
	for i, pt := range pts {
		if pt.SizeKB != s.points[i].SizeKB || pt.Assoc != s.points[i].Assoc {
			return false
		}
	}
	copy(s.points, pts)
	return true
}

// Point returns the result for one geometry.
func (s *ICacheSweep) Point(sizeKB, assoc int) (SweepPoint, bool) {
	for _, pt := range s.points {
		if pt.SizeKB == sizeKB && pt.Assoc == assoc {
			return pt, true
		}
	}
	return SweepPoint{}, false
}
