package asm_test

import (
	"sort"
	"testing"
	"time"

	"interplab/internal/minicc"
	"interplab/internal/mips"
	"interplab/internal/mips/asm"
	"interplab/internal/workloads"
)

// assembleDeadline bounds one input's assembly; the largest seed takes a
// few milliseconds.
const assembleDeadline = 2 * time.Second

// FuzzAssemble feeds the assembler mutations of the compiler's output for
// des and the MIPSI suite.  Assemble must return within the deadline and
// never panic, and every text word it emits must decode to an
// instruction: the decode table MIPSI steps through is built from them.
func FuzzAssemble(f *testing.F) {
	srcs := map[string]string{"des": workloads.DESMiniCSource(1)}
	for name, src := range workloads.SpecMiniCSources(0.05) {
		srcs[name] = src
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u, err := minicc.Parse(minicc.WithStdlib(srcs[name]))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		if err := minicc.Check(u); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		text, err := minicc.GenMIPS(u)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var (
			prog     *mips.Program
			err      error
			panicked any
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { panicked = recover() }()
			prog, err = asm.Assemble("fuzz", src)
		}()
		select {
		case <-done:
		case <-time.After(assembleDeadline):
			// The goroutine is left running: the failed test ends the
			// fuzz run and the process with it.
			t.Fatalf("Assemble ran past %v", assembleDeadline)
		}
		if panicked != nil {
			t.Fatalf("Assemble panicked: %v", panicked)
		}
		if err != nil {
			return
		}
		for i, w := range prog.Text {
			if in := mips.Decode(w, prog.TextBase+uint32(i)*4); in.Op == mips.INVALID {
				t.Fatalf("text word %d is %#x, no instruction", i, w)
			}
		}
	})
}
