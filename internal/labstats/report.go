package labstats

import (
	"fmt"
	"io"
)

// fmtUS renders a microsecond quantity at human scale.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.1fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fus", us)
	}
}

// WriteReport renders one batch's speedup ledger as text: the headline
// speedup decomposition, the per-worker utilization table, and the job
// balance.
func (s *SchedStats) WriteReport(w io.Writer, id string) error {
	if s == nil {
		_, err := fmt.Fprintf(w, "%s: no scheduler ledger recorded\n", id)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s: %d jobs on %d workers (requested %d), wall %s\n",
		id, s.Jobs.Enqueued, s.WorkersEffective, s.WorkersRequested, fmtUS(s.WallUS)); err != nil {
		return err
	}
	fmt.Fprintf(w, "  overlap %.2fx (busy/wall)\n", s.OverlapX)
	fmt.Fprintf(w, "  serial fraction %.3f, serial wall %s of %s\n",
		s.SerialFraction, fmtUS(s.SerialUS), fmtUS(s.WallUS))
	fmt.Fprintf(w, "  work %s, critical path %s, imbalance %.1f%%\n",
		fmtUS(s.TotalBusyUS), fmtUS(s.CriticalPathUS), s.ImbalancePct)
	if s.ClaimPolicy != "" {
		fmt.Fprintf(w, "  claims %s over %d cpus (gomaxprocs %d)", s.ClaimPolicy, s.CPUs, s.GOMAXPROCS)
		if s.DilationX > 0 {
			fmt.Fprintf(w, ", dilation %.2fx vs prior estimates", s.DilationX)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-8s %6s %12s %12s %6s\n", "worker", "jobs", "busy", "idle", "util")
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "  %-8d %6d %12s %12s %5.0f%%\n",
			ws.Worker, ws.Jobs, fmtUS(ws.BusyUS), fmtUS(ws.IdleUS), 100*ws.Utilization)
	}
	_, err := fmt.Fprintf(w, "  jobs: %d enqueued, %d claimed, %d finished, %d errors, %d abandoned, %d unclaimed\n",
		s.Jobs.Enqueued, s.Jobs.Claimed, s.Jobs.Finished, s.Jobs.Errors, s.Jobs.Abandoned, s.Jobs.Unclaimed)
	return err
}
