package alphasim

import (
	"fmt"
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

// ICacheSweep simulates many instruction-cache geometries simultaneously
// over a single event stream, so Figure 4 needs only one pass per workload.
// It implements trace.Sink.
type ICacheSweep struct {
	points   []SweepPoint
	caches   []*Cache
	lineSize int
}

// NewICacheSweep builds a sweep over the cross product of sizes (in KB) and
// associativities, with the given line size in bytes.
func NewICacheSweep(sizesKB, assocs []int, lineSize int) *ICacheSweep {
	s := &ICacheSweep{lineSize: lineSize}
	for _, kb := range sizesKB {
		for _, a := range assocs {
			s.points = append(s.points, SweepPoint{SizeKB: kb, Assoc: a})
			s.caches = append(s.caches, NewCache(CacheConfig{
				Name:     fmt.Sprintf("i%dk%dw", kb, a),
				Size:     kb << 10,
				LineSize: lineSize,
				Assoc:    a,
			}))
		}
	}
	return s
}

// DefaultICacheSweep returns the paper's Figure 4 grid: 8/16/32/64 KB ×
// direct-mapped/2-way/4-way, 32-byte lines.
func DefaultICacheSweep() *ICacheSweep {
	return NewICacheSweep([]int{8, 16, 32, 64}, []int{1, 2, 4}, 32)
}

// Emit probes every configured cache with the instruction's fetch address.
func (s *ICacheSweep) Emit(e trace.Event) {
	for i, c := range s.caches {
		s.points[i].Instructions++
		if !c.Access(e.PC) {
			s.points[i].Misses++
		}
	}
}

// EmitBlock probes every configured cache with a whole batch, transposed:
// the outer loop walks the geometries and the inner loop streams the
// block's PC column through one cache at a time, so each cache's tag state
// stays hot while the PCs arrive as a sequential array scan.  The per-point
// counters are updated once per block instead of once per event.
func (s *ICacheSweep) EmitBlock(b *trace.Block) {
	for i, c := range s.caches {
		misses := uint64(0)
		for k := 0; k < b.N; k++ {
			if !c.Access(b.PC[k]) {
				misses++
			}
		}
		s.points[i].Instructions += uint64(b.N)
		s.points[i].Misses += misses
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
