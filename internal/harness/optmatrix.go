package harness

import (
	"fmt"

	"interplab/internal/alphasim"
	"interplab/internal/core"
	"interplab/internal/profile"
	"interplab/internal/workloads"
)

// OptMatrix measures the §5 optimization ladder as an interpreter × tier
// matrix on the des workload: quickening (operand specialization at first
// execution) and superinstructions (fused hot opcode pairs), separately
// and combined.  Each cell is one run of its program that feeds both the
// simulated processor and an instruction-cache sweep.  The baseline cells
// of the two fusing interpreters also count consecutive-dispatch pairs,
// the evidence their fusion tables were selected from.
//
// The rendered matrix is the headline artifact: per interpreter, how the
// dispatched-command count, the fetch/decode share, and the cache-miss
// signature move as tiers are enabled — the measured answer to the
// paper's closing question of how much dispatch optimization can recover.
func OptMatrix(opt Options) error {
	scale := opt.scale()
	b := opt.newBatch()

	type cell struct {
		tier workloads.Tier
		pipe *job
	}
	matrixSystems := []core.System{core.SysMIPSI, core.SysJava, core.SysPerl, core.SysTcl}
	var rows [][]cell
	for _, sys := range matrixSystems {
		var row []cell
		for _, t := range workloads.Tiers(sys) {
			// Each cell gets a private sweep; jobs run concurrently.
			row = append(row, cell{
				tier: t,
				pipe: b.measurePipelineSweep(workloads.DESTiered(sys, scale, t),
					alphasim.DefaultConfig(), alphasim.DefaultICacheSweep()),
			})
		}
		rows = append(rows, row)
	}
	if err := b.run(); err != nil {
		return err
	}

	w := opt.out()
	fmt.Fprintf(w, "Optimization-tier matrix (des workload)\n\n")
	fmt.Fprintf(w, "Superinstruction selection evidence — consecutive-dispatch pair counts:\n\n")
	for i, sys := range matrixSystems {
		if sys != core.SysMIPSI && sys != core.SysJava {
			continue // only the fusing interpreters count pairs
		}
		res := rows[i][0].pipe.res // the baseline cell
		if err := profile.WriteHotPairs(w, string(sys)+"/des", res.Stats.Pairs, 8); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "Dispatch and execution by tier:\n\n")
	fmt.Fprintf(w, "%-6s %-14s %10s %12s %12s %8s %8s %12s\n",
		"Lang", "Tier", "VCmds(K)", "FD(K)", "NativeI(K)", "FD/cmd", "Ex/cmd", "Cycles(K)")
	for i, sys := range matrixSystems {
		for _, c := range rows[i] {
			res := c.pipe.res
			fd, ex := res.PerCommand()
			fmt.Fprintf(w, "%-6s %-14s %10s %12s %12s %8.0f %8.1f %12s\n",
				sys, c.tier.Key,
				fmtK(res.Commands()), fmtK(res.Stats.FetchDecode),
				fmtK(res.NativeInstructions()), fd, ex, fmtK(res.Pipe.Cycles))
		}
	}
	fmt.Fprintf(w, "\nDispatch recovered per tier (fetch/decode instructions vs baseline):\n")
	for i, sys := range matrixSystems {
		base := rows[i][0].pipe.res
		for _, c := range rows[i][1:] {
			res := c.pipe.res
			saved := 100 * (1 - float64(res.Stats.FetchDecode)/float64(base.Stats.FetchDecode))
			cyc := 100 * (1 - float64(res.Pipe.Cycles)/float64(base.Pipe.Cycles))
			fmt.Fprintf(w, "  %-6s %-14s fetch/decode %+5.1f%%, cycles %+5.1f%%\n",
				sys, c.tier.Key, -saved, -cyc)
		}
	}

	fmt.Fprintf(w, "\nInstruction-cache signature by tier (misses per 100 instructions):\n\n")
	fmt.Fprintf(w, "%-6s %-14s", "Lang", "Tier")
	for _, pt := range alphasim.DefaultICacheSweep().Points() {
		fmt.Fprintf(w, " %9s", pt.Label())
	}
	fmt.Fprintln(w)
	for i, sys := range matrixSystems {
		for _, c := range rows[i] {
			fmt.Fprintf(w, "%-6s %-14s", sys, c.tier.Key)
			for _, pt := range c.pipe.sweep.Points() {
				fmt.Fprintf(w, " %9.2f", pt.MissPer100())
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
