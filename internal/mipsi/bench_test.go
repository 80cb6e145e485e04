package mipsi_test

import (
	"sync"
	"testing"

	"interplab/internal/atom"
	"interplab/internal/minicc"
	"interplab/internal/mips"
	"interplab/internal/mipsi"
	"interplab/internal/trace"
	"interplab/internal/vfs"
	"interplab/internal/workloads"
)

// benchDES is compiled des at 20 blocks, the program both step benchmarks
// run from load to exit.
var benchDES = sync.OnceValues(func() (*mips.Program, error) {
	return minicc.CompileMIPS("des", minicc.WithStdlib(workloads.DESMiniCSource(20)))
})

// reportPerInst reports the benchmark's host time per guest instruction.
func reportPerInst(b *testing.B, steps uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/inst")
}

// BenchmarkNativeStep times the compiled-C mode, machine load included,
// with no sink: every measurement of a C program runs this path.
func BenchmarkNativeStep(b *testing.B) {
	prog, err := benchDES()
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nat, err := mipsi.NewNative(prog, vfs.New(), trace.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if err := nat.Run(0); err != nil {
			b.Fatal(err)
		}
		steps += nat.M.Steps
	}
	reportPerInst(b, steps)
}

// BenchmarkInterpStep times MIPSI proper, machine load and the probe's
// accounting of every simulated instruction included.
func BenchmarkInterpStep(b *testing.B) {
	prog, err := benchDES()
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := atom.NewImage()
		p := atom.NewProbe(img, trace.Discard)
		osys := vfs.New()
		osys.Instrument(img, p)
		ip, err := mipsi.New(prog, osys, img, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := ip.Run(0); err != nil {
			b.Fatal(err)
		}
		steps += ip.M.Steps
	}
	reportPerInst(b, steps)
}
