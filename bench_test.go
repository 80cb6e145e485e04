// Package interplab_test benches the study end-to-end: one benchmark per
// table and figure of the paper (regenerating it at reduced scale each
// iteration), plus per-interpreter des benchmarks that report the
// simulated-machine metrics alongside wall time.
package interplab_test

import (
	"io"
	"strings"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/harness"
	"interplab/internal/trace"
	"interplab/internal/vfs"
	"interplab/internal/workloads"
)

// benchExperiment regenerates one table/figure per iteration.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	opt := harness.Options{Scale: scale, Out: io.Discard}
	for i := 0; i < b.N; i++ {
		if err := harness.Run(id, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 0.05) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", 0.05) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", 0.05) }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1", 0.05) }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2", 0.05) }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3", 0.05) }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4", 0.05) }

func BenchmarkMemModel(b *testing.B)  { benchExperiment(b, "memmodel", 0.05) }
func BenchmarkAblation(b *testing.B)  { benchExperiment(b, "ablation", 0.05) }
func BenchmarkOptMatrix(b *testing.B) { benchExperiment(b, "opt-matrix", 0.05) }

// benchDES runs one system's des and reports virtual commands and native
// instructions per second of *simulated* execution.
func benchDES(b *testing.B, mk func(blocks int) core.Program, blocks int) {
	b.Helper()
	var cmds, instr uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Measure(mk(blocks))
		if err != nil {
			b.Fatal(err)
		}
		cmds = res.Commands()
		instr = res.NativeInstructions()
		if !strings.Contains(res.Stdout, "") {
			b.Fatal("impossible")
		}
	}
	b.ReportMetric(float64(cmds), "vcmds/op")
	b.ReportMetric(float64(instr), "native-instr/op")
}

func BenchmarkDESNative(b *testing.B) { benchDES(b, workloads.DESNative, 30) }
func BenchmarkDESMIPSI(b *testing.B)  { benchDES(b, workloads.DESMIPSI, 30) }
func BenchmarkDESJava(b *testing.B)   { benchDES(b, workloads.DESJava, 30) }
func BenchmarkDESPerl(b *testing.B)   { benchDES(b, workloads.DESPerl, 10) }
func BenchmarkDESTcl(b *testing.B)    { benchDES(b, workloads.DESTcl, 3) }

// BenchmarkPipeline measures the processor simulator's event throughput.
func BenchmarkPipeline(b *testing.B) {
	p := workloads.DESMIPSI(20)
	for i := 0; i < b.N; i++ {
		res, err := core.MeasureWithPipeline(p, alphasim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Counter.Total))
	}
}

// BenchmarkICacheSweep measures the 12-geometry Figure 4 sweep per event.
func BenchmarkICacheSweep(b *testing.B) {
	p := workloads.DESJava(40)
	for i := 0; i < b.N; i++ {
		sweep := alphasim.DefaultICacheSweep()
		if _, err := core.MeasureWithSweep(p, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

// blockRecorder keeps a copy of every event block a guest emits.
type blockRecorder struct{ blocks []*trace.Block }

func (r *blockRecorder) EmitBlock(b *trace.Block) {
	c := *b
	r.blocks = append(r.blocks, &c)
}

// recordBlocks runs p as core.Measure does, with only a recorder for a
// sink, and returns its event stream as blocks.
func recordBlocks(b *testing.B, p core.Program) []*trace.Block {
	b.Helper()
	rec := new(blockRecorder)
	img := atom.NewImage()
	probe := atom.NewProbe(img, rec)
	osys := vfs.New()
	if p.System != core.SysC {
		osys.Instrument(img, probe)
	}
	if err := p.Run(&core.Ctx{Image: img, Probe: probe, Sink: rec, OS: osys}); err != nil {
		b.Fatal(err)
	}
	probe.FlushEvents()
	return rec.blocks
}

// desStreams is des on all five systems at the smallest block counts the
// perfbench measure workload draws (4.3M events), recorded on first use.
var desStreams [][]*trace.Block

// BenchmarkPipelineReplay reports each simulating sink's own cost per
// event (instruction, however many a block row carries): it replays
// recorded des blocks of all five systems through a fresh Table 3
// pipeline, or a fresh default icache sweep, each, with no guest, probe or
// counter in the loop.
func BenchmarkPipelineReplay(b *testing.B) {
	if desStreams == nil {
		for _, p := range []core.Program{
			workloads.DESNative(16), workloads.DESMIPSI(2), workloads.DESJava(6),
			workloads.DESPerl(2), workloads.DESTcl(1),
		} {
			desStreams = append(desStreams, recordBlocks(b, p))
		}
	}
	var events int
	for _, blocks := range desStreams {
		for _, blk := range blocks {
			events += blk.Insts
		}
	}
	arms := []struct {
		name string
		sink func() trace.Sink
	}{
		{"pipeline", func() trace.Sink { return alphasim.New(alphasim.DefaultConfig()) }},
		{"sweep", func() trace.Sink { return alphasim.DefaultICacheSweep() }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, blocks := range desStreams {
					s := arm.sink()
					for _, blk := range blocks {
						s.EmitBlock(blk)
					}
					replaySink = s
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// replaySink keeps the last replayed sink live.
var replaySink trace.Sink
