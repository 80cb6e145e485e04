// Package workloads defines every benchmark program of the study: the
// des reference point implemented in all four interpreted systems plus
// compiled C, the per-language macro suites of Table 2, and the
// microbenchmarks of Table 1.
//
// Programs are constructed at a size scale: scale 1 keeps each run in the
// millions-of-native-instructions range so the full suite finishes in
// seconds; the shapes the paper reports (per-command costs, distribution
// concentration, cache behavior) are size-stable well below the original
// inputs, which ran for billions of cycles on a 175-MHz Alpha.
package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/minicc"
	"interplab/internal/mipsi"
	"interplab/internal/perl"
	"interplab/internal/tcl"
	"interplab/internal/tk"
)

// Knobs are the interpreter and probe settings the experiments vary on
// one program: ablation's §5 arms and opt-matrix's tier cells.  The zero
// Knobs is the default 1996-level interpreter.  The runners set them after
// building the interpreter and before running it; a knob that a system's
// interpreter lacks has no effect on it.
type Knobs struct {
	// FlatMemory collapses MIPSI's guest-memory translation to a bounds
	// check instead of a simulated page-table walk.
	FlatMemory bool
	// Threaded dispatches MIPSI and Java commands through an indirect
	// jump instead of a switch.
	Threaded bool
	// CachedParse re-executes Tcl bodies from precompiled words (the Tcl 8
	// direction).
	CachedParse bool
	// Quicken specializes operands at first execution (Java, Perl, Tcl).
	Quicken bool
	// Super fuses hot opcode pairs into superinstructions (MIPSI, Java).
	Super bool
	// CountPairs makes the probe count consecutive-dispatch pairs
	// (Stats.Pairs).  Counting is host-side bookkeeping and emits no
	// native instructions.
	CountPairs bool
}

// runMIPS compiles mini-C and interprets the binary under MIPSI with k
// set.
func runMIPS(ctx *core.Ctx, k Knobs, name, src string) error {
	prog, err := minicc.CompileMIPS(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(prog.SizeBytes())
	ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	ip.FlatMemory, ip.Threaded, ip.Superinstructions = k.FlatMemory, k.Threaded, k.Super
	ctx.Probe.CountPairs(k.CountPairs)
	if err := ip.Run(0); err != nil {
		return err
	}
	if ip.M.ExitCode != 0 {
		return fmt.Errorf("guest exited with %d", ip.M.ExitCode)
	}
	return nil
}

// runNative compiles mini-C and executes it directly (the compiled-C mode).
func runNative(ctx *core.Ctx, name, src string) error {
	prog, err := minicc.CompileMIPS(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(prog.SizeBytes())
	nat, err := mipsi.NewNative(prog, ctx.OS, ctx.Sink)
	if err != nil {
		return err
	}
	nat.Tally = ctx.NativeTally()
	if err := nat.Run(0); err != nil {
		return err
	}
	ctx.RecordBatch(nat.BatchStats())
	if nat.M.ExitCode != 0 {
		return fmt.Errorf("program exited with %d", nat.M.ExitCode)
	}
	return nil
}

// runJava compiles mini-C for the JVM and interprets the bytecode with k
// set, binding the OS natives plus any extra native library.
func runJava(ctx *core.Ctx, k Knobs, name, src string, extraNatives ...[]*jvm.NativeFn) error {
	mod, err := minicc.CompileJVM(name, src)
	if err != nil {
		return err
	}
	ctx.SetProgramSize(mod.CodeBytes())
	if err := mod.Bind(jvm.OSNatives(ctx.OS)); err != nil {
		return err
	}
	for _, nats := range extraNatives {
		if err := mod.Bind(nats); err != nil {
			return err
		}
	}
	if missing := mod.Unbound(); len(missing) > 0 {
		return fmt.Errorf("unbound natives: %v", missing)
	}
	vm, err := jvm.New(mod, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	vm.Threaded, vm.Quicken, vm.Superinstructions = k.Threaded, k.Quicken, k.Super
	ctx.Probe.CountPairs(k.CountPairs)
	ret, err := vm.Run("main", 0)
	if err != nil {
		return err
	}
	if ret != 0 {
		return fmt.Errorf("main returned %d", ret)
	}
	return nil
}

// runPerl interprets a script with k set.
func runPerl(ctx *core.Ctx, k Knobs, src string) error {
	ctx.SetProgramSize(len(src))
	ip, err := perl.New(src, ctx.OS, ctx.Image, ctx.Probe)
	if err != nil {
		return err
	}
	ip.Quicken = k.Quicken
	ctx.Probe.CountPairs(k.CountPairs)
	if err := ip.Run(); err != nil {
		return err
	}
	if ip.ExitCode() != 0 {
		return fmt.Errorf("script exited with %d", ip.ExitCode())
	}
	return nil
}

// runTcl interprets a script with k set; withTk attaches the widget
// toolkit.
func runTcl(ctx *core.Ctx, k Knobs, src string, withTk bool) error {
	ctx.SetProgramSize(len(src))
	i := tcl.New(ctx.OS, ctx.Image, ctx.Probe)
	if withTk {
		tk.Attach(i, ctx.Display(320, 240))
	}
	i.CachedParse, i.Quicken = k.CachedParse, k.Quicken
	ctx.Probe.CountPairs(k.CountPairs)
	if _, err := i.Eval(src); err != nil {
		return err
	}
	if i.ExitCode() != 0 {
		return fmt.Errorf("script exited with %d", i.ExitCode())
	}
	return nil
}

// desBlocks returns the des problem size for a system at a scale (1 =
// the Table 2 default): that system's default block count times the
// scale, at least one block.
func desBlocks(sys core.System, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	base := 150 // compiled C and MIPSI
	switch sys {
	case core.SysJava:
		base = 260
	case core.SysPerl:
		base = 18
	case core.SysTcl:
		base = 6
	}
	return max(int(float64(base)*scale), 1)
}

// Suite returns the Table 2 macro programs for all systems at the given
// scale (1 = default sizes).
func Suite(scale float64) []core.Program {
	if scale <= 0 {
		scale = 1
	}
	progs := []core.Program{
		DESNative(desBlocks(core.SysC, scale)),
		DESMIPSI(desBlocks(core.SysMIPSI, scale)),
		DESJava(desBlocks(core.SysJava, scale)),
		DESPerl(desBlocks(core.SysPerl, scale)),
		DESTcl(desBlocks(core.SysTcl, scale)),
	}
	progs = append(progs, MIPSISuite(scale)...)
	progs = append(progs, JavaSuite(scale)...)
	progs = append(progs, PerlSuite(scale)...)
	progs = append(progs, TclSuite(scale)...)
	return progs
}
