package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interplab/internal/harness"
	"interplab/internal/telemetry"
)

// writeManifestFor runs one experiment at the given parallelism with a
// manifest attached and writes it to a temp file.
func writeManifestFor(t *testing.T, id string, parallelism int) string {
	t.Helper()
	man := telemetry.NewManifest(0.1)
	man.Config.Parallelism = parallelism
	opt := harness.Options{Scale: 0.1, Out: io.Discard, Parallelism: parallelism, Manifest: man}
	if err := harness.Run(id, opt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSchedReportText is the subcommand's happy path on a parallel table1
// run: the report names the experiment, prints one row per worker, and
// shows the headline ratios the ledger promises.
func TestSchedReportText(t *testing.T) {
	path := writeManifestFor(t, "table1", 2)
	var out bytes.Buffer
	if err := schedReport(path, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"table1",
		"overlap",
		"serial fraction",
		"worker",
		"imbalance",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// Two worker rows (worker, jobs, busy, idle, util) for a 2-worker run.
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && (f[0] == "0" || f[0] == "1") {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("got %d worker rows, want 2:\n%s", rows, text)
	}
}

// TestSchedReportJSON: -json emits the raw sched blocks, keyed by run,
// decodable and carrying per-worker utilization.
func TestSchedReportJSON(t *testing.T) {
	path := writeManifestFor(t, "table1", 2)
	var out bytes.Buffer
	if err := schedReport(path, true, &out); err != nil {
		t.Fatal(err)
	}
	var doc []schedRunLedger
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("sched-report -json output does not decode: %v", err)
	}
	if len(doc) != 1 || doc[0].Run != "table1" || len(doc[0].Sched) != 1 {
		t.Fatalf("unexpected document shape: %+v", doc)
	}
	s := doc[0].Sched[0]
	if s.WorkersEffective != 2 || len(s.Workers) != 2 {
		t.Errorf("workers = %d effective, %d rows; want 2/2", s.WorkersEffective, len(s.Workers))
	}
	for _, w := range s.Workers {
		if w.Utilization <= 0 {
			t.Errorf("worker %d utilization = %v after JSON round trip, want > 0", w.Worker, w.Utilization)
		}
	}
}

// TestSchedReportErrors pins the error contract: missing and malformed
// files fail with one line naming the file, and a manifest without sched
// blocks (one recorded before scheduler introspection) says so.
func TestSchedReportErrors(t *testing.T) {
	for _, fixture := range []string{
		filepath.Join("testdata", "truncated.json"),
		filepath.Join("testdata", "not-manifest.json"),
		filepath.Join("testdata", "no-such-manifest.json"),
	} {
		err := schedReport(fixture, false, io.Discard)
		if err == nil {
			t.Fatalf("%s: expected an error", fixture)
		}
		if msg := err.Error(); !strings.Contains(msg, fixture) || strings.Contains(msg, "\n") {
			t.Errorf("%s: want a one-line error naming the file, got %q", fixture, msg)
		}
	}

	// A valid manifest with no sched blocks: hand-write one.
	man := telemetry.NewManifest(0.1)
	man.StartRun("table3")
	path := filepath.Join(t.TempDir(), "nosched.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = schedReport(path, false, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no sched blocks") {
		t.Errorf("manifest without sched blocks: got %v", err)
	}
}

// TestSummarizeLedger covers the bench-telemetry condensation: nil in nil
// out, and the summary carries the per-worker utilization vector the CI
// assertion reads.
func TestSummarizeLedger(t *testing.T) {
	if summarizeLedger(nil) != nil {
		t.Error("summarizeLedger(nil) should be nil")
	}
	man := telemetry.NewManifest(0.1)
	opt := harness.Options{Scale: 0.1, Out: io.Discard, Parallelism: 2, Manifest: man}
	if err := harness.Run("fig1", opt); err != nil {
		t.Fatal(err)
	}
	s := man.Runs[0].Sched[0]
	sum := summarizeLedger(s)
	if sum == nil {
		t.Fatal("summarizeLedger returned nil for a real ledger")
	}
	if len(sum.WorkerUtilization) != len(s.Workers) {
		t.Fatalf("utilization vector has %d entries for %d workers", len(sum.WorkerUtilization), len(s.Workers))
	}
	for i, u := range sum.WorkerUtilization {
		if u != s.Workers[i].Utilization {
			t.Errorf("worker %d utilization %v != ledger %v", i, u, s.Workers[i].Utilization)
		}
	}
	if sum.EffectiveWorkers != s.WorkersEffective || sum.SerialFraction != s.SerialFraction {
		t.Errorf("summary fields diverge from ledger: %+v vs %+v", sum, s)
	}
}
