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
// section order.
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
	b := opt.newBatch()

	// Section 1: iTLB size sweep on Tcl/Tk tkdiff.
	itlbSizes := []int{8, 32}
	itlbJobs := make([]*job, len(itlbSizes))
	for i, entries := range itlbSizes {
		cfg := alphasim.DefaultConfig()
		cfg.ITLBEntries = entries
		itlbJobs[i] = b.measurePipeline(tkdiff, cfg)
	}

	// Section 2: MIPSI page tables vs flat memory.
	flatModes := []bool{false, true}
	flatJobs := make([]*job, len(flatModes))
	for i, flat := range flatModes {
		flat := flat
		flatJobs[i] = b.measure(core.Program{
			System: core.SysMIPSI, Name: "des",
			Variant: map[bool]string{false: "page-tables", true: "flat-memory"}[flat],
			Run: func(ctx *core.Ctx) error {
				prog, err := minicc.CompileMIPS("des", minicc.WithStdlib(desSourceForAblation(blocks)))
				if err != nil {
					return err
				}
				ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
				if err != nil {
					return err
				}
				ip.FlatMemory = flat
				return ip.Run(0)
			},
		})
	}

	// Section 3: dispatch implementations (§5).
	da := enqueueDispatchAblation(b, blocks, scale)

	// Section 4: fetch/decode share per interpreter.
	fdProgs := []core.Program{
		workloads.DESMIPSI(blocks),
		workloads.DESJava(int(260 * scale)),
		workloads.DESPerl(int(18 * scale)),
		workloads.DESTcl(int(6 * scale)),
	}
	fdJobs := make([]*job, len(fdProgs))
	for i, p := range fdProgs {
		fdJobs[i] = b.measure(p)
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

// desSourceForAblation re-exposes the shared des source (kept in the
// workloads package) for the flat-memory run.
func desSourceForAblation(blocks int) string {
	return workloads.DESMiniCSource(blocks)
}

// dispatchAblationJobs holds Section 3's enqueued measurements: the §5
// software optimizations as implemented knobs — threaded dispatch for the
// low-level VMs, and parse caching (the Tcl 8 direction) for Tcl.
type dispatchAblationJobs struct {
	mipsi, java, tcl [2]*job // index 0 = baseline, 1 = optimized
}

// enqueueDispatchAblation adds Section 3's six measurements to the batch.
func enqueueDispatchAblation(b *batch, blocks int, scale float64) *dispatchAblationJobs {
	da := &dispatchAblationJobs{}
	// MIPSI: switch vs. threaded dispatch.
	for i, threaded := range []bool{false, true} {
		threaded := threaded
		da.mipsi[i] = b.measure(core.Program{
			System: core.SysMIPSI, Name: "des",
			Variant: map[bool]string{false: "switch-dispatch", true: "threaded-dispatch"}[threaded],
			Run: func(ctx *core.Ctx) error {
				prog, err := minicc.CompileMIPS("des", minicc.WithStdlib(desSourceForAblation(blocks)))
				if err != nil {
					return err
				}
				ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
				if err != nil {
					return err
				}
				ip.Threaded = threaded
				return ip.Run(0)
			},
		})
	}

	// Java: switch vs. threaded dispatch.
	jblocks := int(260 * scale)
	if jblocks < 16 {
		jblocks = 16
	}
	for i, threaded := range []bool{false, true} {
		threaded := threaded
		da.java[i] = b.measure(core.Program{
			System: core.SysJava, Name: "des",
			Variant: map[bool]string{false: "switch-dispatch", true: "threaded-dispatch"}[threaded],
			Run: func(ctx *core.Ctx) error {
				mod, err := minicc.CompileJVM("des", minicc.WithStdlibJVM(desSourceForAblation(jblocks)))
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
				vm.Threaded = threaded
				_, err = vm.Run("main", 0)
				return err
			},
		})
	}

	// Tcl: direct string interpretation vs. cached parse (Tcl 8 model).
	tblocks := int(6 * scale)
	if tblocks < 2 {
		tblocks = 2
	}
	for i, cached := range []bool{false, true} {
		cached := cached
		da.tcl[i] = b.measure(core.Program{
			System: core.SysTcl, Name: "des",
			Variant: map[bool]string{false: "re-parse", true: "cached-parse"}[cached],
			Run: func(ctx *core.Ctx) error {
				i := tcl.New(ctx.OS, ctx.Image, ctx.Probe)
				i.CachedParse = cached
				_, err := i.Eval(workloads.DESTclSource(tblocks))
				return err
			},
		})
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
