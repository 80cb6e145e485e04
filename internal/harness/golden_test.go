package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/telemetry"
)

// update regenerates the exact golden instead of comparing against it:
//
//	go test ./internal/harness -run TestExactGolden -update
var update = flag.Bool("update", false, "rewrite testdata/measurements-0.05.jsonl from this build")

// goldenScale is the workload scale of the exact golden.
const goldenScale = 0.05

// goldenFile holds one line per manifest measurement record of every
// experiment at goldenScale: experiment<TAB>index<TAB>canonical JSON.
var goldenFile = filepath.Join("testdata", "measurements-0.05.jsonl")

// goldenSkip, when non-empty, is why this build skips TestExactGolden.
var goldenSkip string

// canonicalRecord is the simulated result of one measurement: the fields
// perfbench's canonicalJSON keeps.  Wall time, cache provenance and the
// block accounting (batch) vary between equal measurements and are left
// out.
type canonicalRecord struct {
	Program   string                `json:"program"`
	Variant   string                `json:"variant,omitempty"`
	SizeBytes int                   `json:"size_bytes,omitempty"`
	Events    uint64                `json:"events"`
	Kind      string                `json:"kind"`
	Stats     *atom.Stats           `json:"stats,omitempty"`
	Pipe      *alphasim.Stats       `json:"pipe,omitempty"`
	Sweep     []alphasim.SweepPoint `json:"sweep,omitempty"`
}

// goldenLine is one record of the exact golden.
type goldenLine struct {
	experiment string
	index      int
	program    string
	line       string
}

// TestExactGolden checks every layer at once against committed exact
// values: each manifest measurement record of every experiment, run on
// GOMAXPROCS workers, must equal its line in goldenFile.  The rendered
// text (docs/experiments-run.txt) rounds Table 2 cycles to the thousand
// and Figures 3-4 to a few digits; this golden moves when any counter,
// cycle or miss does.  The file changes only on purpose.
func TestExactGolden(t *testing.T) {
	if goldenSkip != "" {
		t.Skip(goldenSkip)
	}
	man := telemetry.NewManifest(goldenScale)
	for _, id := range Experiments {
		if err := Run(id, Options{Scale: goldenScale, Out: &bytes.Buffer{}, Manifest: man}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	var got []goldenLine
	for _, r := range man.Runs {
		for i, m := range r.Measurements {
			js, err := json.Marshal(canonicalRecord{m.Program, m.Variant, m.SizeBytes, m.Events, m.Kind, m.Stats, m.Pipe, m.Sweep})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, goldenLine{r.ID, i, m.Program, fmt.Sprintf("%s\t%d\t%s", r.ID, i, js)})
		}
	}
	if *update {
		var out bytes.Buffer
		for _, g := range got {
			out.WriteString(g.line + "\n")
		}
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenFile)
		return
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k].line != want[k] {
			t.Fatalf("%s record %d (%s) differs from %s line %d:\n got %.400s\nwant %.400s",
				got[k].experiment, got[k].index, got[k].program, goldenFile, k+1, got[k].line, want[k])
		}
	}
	switch {
	case len(got) > len(want):
		g := got[len(want)]
		t.Fatalf("%s record %d (%s) is past the end of %s (%d records)", g.experiment, g.index, g.program, goldenFile, len(want))
	case len(got) < len(want):
		t.Fatalf("the run wrote %d records, %s holds %d; first missing: %.120s", len(got), goldenFile, len(want), want[len(got)])
	}
}
