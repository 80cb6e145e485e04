package harness

import (
	"fmt"
	"io"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/minicc"
	"interplab/internal/mipsi"
	"interplab/internal/tcl"
	"interplab/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. iTLB size 8 vs 32 — the paper's footnote: a 32-entry iTLB
//     effectively eliminates iTLB stalls.
//  2. MIPSI's simulated page tables vs a flat guest memory — the §3.3
//     share attributable to the memory model.
//  3. Dispatch implementation — threaded interpretation for the
//     low-level VMs and parse caching (the Tcl 8 direction) for Tcl,
//     the §5 software optimizations, implemented as knobs.
//  4. Dispatch (fetch/decode) share per interpreter — the bound on what
//     those optimizations can ever save.
//
// All four sections' measurements are enumerated into one batch, so a
// parallel run overlaps them freely; rendering happens afterwards in
// section order.  MIPSI des with default knobs appears in three sections
// and runs once for all of them.
func Ablation(opt Options) error {
	scale := opt.scale()
	var tkdiff core.Program
	for _, p := range workloads.TclSuite(scale) {
		if p.Name == "tkdiff" {
			tkdiff = p
		}
	}
	blocks := int(150 * scale)
	if blocks < 8 {
		blocks = 8
	}
	desSrc := workloads.DESMiniCSource(blocks)
	b := opt.newBatch()

	// Section 1: iTLB size sweep on Tcl/Tk tkdiff.
	itlbSizes := []int{8, 32}
	itlbJobs := make([]*job, len(itlbSizes))
	for i, entries := range itlbSizes {
		cfg := alphasim.DefaultConfig()
		cfg.ITLBEntries = entries
		itlbJobs[i] = b.measurePipeline(tkdiff, cfg)
	}

	// MIPSI des with every knob at its default is Section 2's page-tables
	// arm, Section 3's switch-dispatch arm and Section 4's MIPSI row: one
	// run feeds all three.
	mipsiDES := b.measure(workloads.DESMIPSI(blocks))

	// Section 2: MIPSI page tables vs flat memory.
	flatModes := []bool{false, true}
	flatJobs := []*job{
		mipsiDES,
		b.measure(ablationMIPSI(desSrc, "flat-memory", func(ip *mipsi.Interp) { ip.FlatMemory = true })),
	}

	// Section 3: dispatch implementations (§5).
	da := enqueueDispatchAblation(b, mipsiDES, desSrc, scale)

	// Section 4: fetch/decode share per interpreter.
	fdJobs := []*job{
		mipsiDES,
		b.measure(workloads.DESJava(int(260 * scale))),
		b.measure(workloads.DESPerl(int(18 * scale))),
		b.measure(workloads.DESTcl(int(6 * scale))),
	}

	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Ablation 1: iTLB size (Tcl/Tk tkdiff through the pipeline)\n")
	for i, entries := range itlbSizes {
		res := itlbJobs[i].res
		fmt.Fprintf(w, "  iTLB %2d entries: itlb stalls %.2f%% of issue slots, CPI %.2f\n",
			entries, 100*res.Pipe.StallFrac(alphasim.CauseITLB, 2), res.Pipe.CPI())
	}

	fmt.Fprintf(w, "\nAblation 2: MIPSI simulated page tables vs flat memory (des)\n")
	for i, flat := range flatModes {
		res := flatJobs[i].res
		fd, ex := res.PerCommand()
		mm, _ := res.Stats.Region("memmodel")
		label := "page tables"
		if flat {
			label = "flat memory"
		}
		fmt.Fprintf(w, "  %-12s: %8s native instr, fd/cmd %.0f, ex/cmd %.1f, memmodel %4.1f%%\n",
			label, fmtK(res.NativeInstructions()), fd, ex,
			100*float64(mm.Instructions)/float64(res.NativeInstructions()))
	}

	fmt.Fprintf(w, "\nAblation 3: dispatch implementation (§5: threaded code, bytecode caching)\n")
	da.render(w)

	fmt.Fprintf(w, "\nAblation 4: fetch/decode share (the dispatch-optimization bound, §5)\n")
	for _, j := range fdJobs {
		res := j.res
		fdShare := float64(res.Stats.FetchDecode) / float64(res.NativeInstructions())
		fmt.Fprintf(w, "  %-10s fetch/decode is %4.1f%% of native instructions\n",
			res.Program.System, 100*fdShare)
	}
	return nil
}

// ablationMIPSI is the mini-C program src interpreted by MIPSI with knob
// applied to the interpreter.  Like the suite's MIPSI runs it fails when
// the guest exits nonzero — des's main returns its round-trip error count,
// so a knob that broke the guest cannot render numbers.
func ablationMIPSI(src, variant string, knob func(*mipsi.Interp)) core.Program {
	return core.Program{
		System: core.SysMIPSI, Name: "des", Variant: variant,
		Run: func(ctx *core.Ctx) error {
			prog, err := minicc.CompileMIPS("des", minicc.WithStdlib(src))
			if err != nil {
				return err
			}
			ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
			if err != nil {
				return err
			}
			knob(ip)
			if err := ip.Run(0); err != nil {
				return err
			}
			if ip.M.ExitCode != 0 {
				return fmt.Errorf("guest exited with %d", ip.M.ExitCode)
			}
			return nil
		},
	}
}

// ablationJava is the mini-C program src compiled to bytecode and run by
// the JVM with knob applied; it fails when main returns nonzero.
func ablationJava(src, variant string, knob func(*jvm.VM)) core.Program {
	return core.Program{
		System: core.SysJava, Name: "des", Variant: variant,
		Run: func(ctx *core.Ctx) error {
			mod, err := minicc.CompileJVM("des", minicc.WithStdlibJVM(src))
			if err != nil {
				return err
			}
			if err := mod.Bind(jvm.OSNatives(ctx.OS)); err != nil {
				return err
			}
			vm, err := jvm.New(mod, ctx.Image, ctx.Probe)
			if err != nil {
				return err
			}
			knob(vm)
			ret, err := vm.Run("main", 0)
			if err != nil {
				return err
			}
			if ret != 0 {
				return fmt.Errorf("main returned %d", ret)
			}
			return nil
		},
	}
}

// ablationTcl is the Tcl script src run with knob applied; it fails when
// the script exits nonzero.
func ablationTcl(src, variant string, knob func(*tcl.Interp)) core.Program {
	return core.Program{
		System: core.SysTcl, Name: "des", Variant: variant,
		Run: func(ctx *core.Ctx) error {
			i := tcl.New(ctx.OS, ctx.Image, ctx.Probe)
			knob(i)
			if _, err := i.Eval(src); err != nil {
				return err
			}
			if i.ExitCode() != 0 {
				return fmt.Errorf("script exited with %d", i.ExitCode())
			}
			return nil
		},
	}
}

// dispatchAblationJobs holds Section 3's enqueued measurements: the §5
// software optimizations as implemented knobs — threaded dispatch for the
// low-level VMs, and parse caching (the Tcl 8 direction) for Tcl.
type dispatchAblationJobs struct {
	mipsi, java, tcl [2]*job // index 0 = baseline, 1 = optimized
}

// enqueueDispatchAblation adds Section 3's measurements to the batch.  Its
// MIPSI baseline is mipsiDES, the shared default-knob run of the mini-C
// des source src.
func enqueueDispatchAblation(b *batch, mipsiDES *job, src string, scale float64) *dispatchAblationJobs {
	da := &dispatchAblationJobs{}
	// MIPSI: switch vs. threaded dispatch.
	da.mipsi = [2]*job{
		mipsiDES,
		b.measure(ablationMIPSI(src, "threaded-dispatch", func(ip *mipsi.Interp) { ip.Threaded = true })),
	}

	// Java: switch vs. threaded dispatch.
	jblocks := int(260 * scale)
	if jblocks < 16 {
		jblocks = 16
	}
	jsrc := workloads.DESMiniCSource(jblocks)
	for i, threaded := range []bool{false, true} {
		variant := map[bool]string{false: "switch-dispatch", true: "threaded-dispatch"}[threaded]
		da.java[i] = b.measure(ablationJava(jsrc, variant, func(vm *jvm.VM) { vm.Threaded = threaded }))
	}

	// Tcl: direct string interpretation vs. cached parse (Tcl 8 model).
	tblocks := int(6 * scale)
	if tblocks < 2 {
		tblocks = 2
	}
	tsrc := workloads.DESTclSource(tblocks)
	for i, cached := range []bool{false, true} {
		variant := map[bool]string{false: "re-parse", true: "cached-parse"}[cached]
		da.tcl[i] = b.measure(ablationTcl(tsrc, variant, func(ip *tcl.Interp) { ip.CachedParse = cached }))
	}
	return da
}

// render prints Section 3 from the collected results.
func (da *dispatchAblationJobs) render(w io.Writer) {
	for i, threaded := range []bool{false, true} {
		res := da.mipsi[i].res
		fd, _ := res.PerCommand()
		label := "switch  "
		if threaded {
			label = "threaded"
		}
		fmt.Fprintf(w, "  MIPSI %s dispatch: fd/cmd %5.1f, total %s native instr\n",
			label, fd, fmtK(res.NativeInstructions()))
	}
	for i, threaded := range []bool{false, true} {
		res := da.java[i].res
		fd, _ := res.PerCommand()
		label := "switch  "
		if threaded {
			label = "threaded"
		}
		fmt.Fprintf(w, "  Java  %s dispatch: fd/cmd %5.1f, total %s native instr\n",
			label, fd, fmtK(res.NativeInstructions()))
	}
	for i, cached := range []bool{false, true} {
		res := da.tcl[i].res
		fd, _ := res.PerCommand()
		label := "re-parse"
		if cached {
			label = "cached  "
		}
		fmt.Fprintf(w, "  Tcl   %s bodies:   fd/cmd %5.0f, total %s native instr\n",
			label, fd, fmtK(res.NativeInstructions()))
	}
}
