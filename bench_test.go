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
	"interplab/internal/core"
	"interplab/internal/harness"
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
