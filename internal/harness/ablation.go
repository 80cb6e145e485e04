package harness

import (
	"fmt"

	"interplab/internal/alphasim"
	"interplab/internal/core"
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
	b := opt.newBatch()
	des := func(sys core.System, blocks int, variant string, k workloads.Knobs) *job {
		return b.measure(workloads.DESWith(sys, blocks, variant, k))
	}
	type arm struct {
		label string
		job   *job
	}

	// Section 1: iTLB size sweep on Tcl/Tk tkdiff.
	itlbSizes := []int{8, 32}
	itlbJobs := make([]*job, len(itlbSizes))
	for i, entries := range itlbSizes {
		cfg := alphasim.DefaultConfig()
		cfg.ITLBEntries = entries
		itlbJobs[i] = b.measurePipeline(tkdiff, cfg)
	}

	// Ablation sizes des by rules of its own, which perfbench's golden
	// ablation.txt pins: MIPSI at least 8 blocks everywhere, Java and Tcl
	// at least 16 and 2 in Section 3 only, and Perl unfloored.  MIPSI des with every knob at its default is Section
	// 2's page-tables arm, Section 3's switch-dispatch arm and Section 4's
	// MIPSI row: one run feeds all three.
	mblocks := max(int(150*scale), 8)
	jblocks, tblocks := max(int(260*scale), 16), max(int(6*scale), 2)
	mipsiDES := des(core.SysMIPSI, mblocks, "", workloads.Knobs{})

	// Section 2: MIPSI page tables vs flat memory.
	memArms := []arm{
		{"page tables", mipsiDES},
		{"flat memory", des(core.SysMIPSI, mblocks, "flat-memory", workloads.Knobs{FlatMemory: true})},
	}

	// Section 3: dispatch implementations (§5) — threaded dispatch for the
	// low-level VMs, and parse caching (the Tcl 8 direction) for Tcl.
	// Each label pads to align the rows; Tcl's fd/cmd prints no decimals.
	dispatchArms := []arm{
		{"MIPSI switch   dispatch:", mipsiDES},
		{"MIPSI threaded dispatch:", des(core.SysMIPSI, mblocks, "threaded-dispatch", workloads.Knobs{Threaded: true})},
		{"Java  switch   dispatch:", des(core.SysJava, jblocks, "switch-dispatch", workloads.Knobs{})},
		{"Java  threaded dispatch:", des(core.SysJava, jblocks, "threaded-dispatch", workloads.Knobs{Threaded: true})},
		{"Tcl   re-parse bodies:  ", des(core.SysTcl, tblocks, "re-parse", workloads.Knobs{})},
		{"Tcl   cached   bodies:  ", des(core.SysTcl, tblocks, "cached-parse", workloads.Knobs{CachedParse: true})},
	}

	// Section 4: fetch/decode share per interpreter.
	fdJobs := []*job{
		mipsiDES,
		des(core.SysJava, int(260*scale), "", workloads.Knobs{}),
		des(core.SysPerl, int(18*scale), "", workloads.Knobs{}),
		des(core.SysTcl, int(6*scale), "", workloads.Knobs{}),
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
	for _, a := range memArms {
		res := a.job.res
		fd, ex := res.PerCommand()
		mm, _ := res.Stats.Region("memmodel")
		fmt.Fprintf(w, "  %-12s: %8s native instr, fd/cmd %.0f, ex/cmd %.1f, memmodel %4.1f%%\n",
			a.label, fmtK(res.NativeInstructions()), fd, ex,
			100*float64(mm.Instructions)/float64(res.NativeInstructions()))
	}

	fmt.Fprintf(w, "\nAblation 3: dispatch implementation (§5: threaded code, bytecode caching)\n")
	for _, a := range dispatchArms {
		res := a.job.res
		fd, _ := res.PerCommand()
		digits := 1
		if res.Program.System == core.SysTcl {
			digits = 0
		}
		fmt.Fprintf(w, "  %s fd/cmd %5.*f, total %s native instr\n",
			a.label, digits, fd, fmtK(res.NativeInstructions()))
	}

	fmt.Fprintf(w, "\nAblation 4: fetch/decode share (the dispatch-optimization bound, §5)\n")
	for _, j := range fdJobs {
		res := j.res
		fdShare := float64(res.Stats.FetchDecode) / float64(res.NativeInstructions())
		fmt.Fprintf(w, "  %-10s fetch/decode is %4.1f%% of native instructions\n",
			res.Program.System, 100*fdShare)
	}
	return nil
}
