package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"interplab/internal/labstats"
	"interplab/internal/telemetry"
)

// cmdSchedReport renders the scheduler introspection recorded in a run
// manifest (-json on the generating run): one speedup ledger per
// measurement batch — where the parallel wall time went, per-worker
// busy/idle/utilization, serial fraction, imbalance, and the overlap
// (busy/wall).  -json emits the raw
// sched blocks instead of the text tables.
func cmdSchedReport(args []string) {
	fs := flag.NewFlagSet("sched-report", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the sched blocks as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: interp-lab sched-report [-json] manifest.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		usageFatalf(fs.Usage, "sched-report takes exactly one manifest file")
	}
	if err := schedReport(fs.Arg(0), *asJSON, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// schedRunLedger pairs an experiment id with its batches' speedup ledgers
// in the -json output.
type schedRunLedger struct {
	Run   string                 `json:"run"`
	Sched []*labstats.SchedStats `json:"sched"`
}

// schedReport writes the sched blocks of the manifest at path to w.  As
// with report, every error identifies the file in one line.
func schedReport(path string, asJSON bool, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err // os errors already name the file
	}
	defer f.Close()
	man, err := telemetry.ReadManifest(f)
	if err != nil {
		return fmt.Errorf("%s: not a readable run manifest (%v)", path, err)
	}
	var out []schedRunLedger
	for _, r := range man.Runs {
		if len(r.Sched) > 0 {
			out = append(out, schedRunLedger{Run: r.ID, Sched: r.Sched})
		}
	}
	if len(out) == 0 {
		return fmt.Errorf("%s: manifest has no sched blocks (recorded before scheduler introspection?)", path)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	first := true
	for _, rl := range out {
		for _, s := range rl.Sched {
			if !first {
				fmt.Fprintln(w)
			}
			first = false
			if err := s.WriteReport(w, rl.Run); err != nil {
				return err
			}
		}
	}
	return nil
}
