package atom

import (
	"testing"

	"interplab/internal/trace"
)

// execShapes are routine shapes the interpreters register, each with the
// mean instructions one of their Exec calls reports: Tcl's parser (2600
// instructions, a short-int every 5, 116 per call), Perl's op loop (1400,
// the default spacing, 70 per call), MIPSI's decoder (256, default
// spacing, 14 per call), and a small quickening routine entered for a
// Java-sized 5 instructions with tcl.string's short-int spacing.
var execShapes = []struct {
	name                      string
	size, shortEvery, perCall int
}{
	{"tcl", 2600, 5, 116},
	{"perl", 1400, 16, 70},
	{"mipsi", 256, 16, 14},
	{"n5", 120, 4, 5},
}

// blockDrop is a streaming sink that drops every block: the probe builds
// and delivers them, and nothing downstream adds cost.
type blockDrop struct{}

func (blockDrop) EmitBlock(*trace.Block) {}

// BenchmarkProbeExec measures Exec's cost per reported instruction, in a
// tally-only probe (every measure job) and in a streaming probe that
// builds blocks for a simulator.
func BenchmarkProbeExec(b *testing.B) {
	arms := []struct {
		name string
		sink trace.Sink
	}{{"tally", trace.Discard}, {"stream", blockDrop{}}}
	for _, arm := range arms {
		for _, sh := range execShapes {
			b.Run(arm.name+"/"+sh.name, func(b *testing.B) {
				img := NewImage()
				r := img.Routine("r", sh.size, WithShortEvery(sh.shortEvery))
				p := NewProbe(img, arm.sink)
				n := sh.perCall
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Exec(r, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
			})
		}
	}
}
