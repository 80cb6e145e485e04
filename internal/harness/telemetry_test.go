package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"interplab/internal/telemetry"
)

// TestManifestRoundTripMatchesDirectRun is the acceptance check for the
// run-manifest writer: a table1 run recorded into a manifest, serialized,
// re-read, and re-rendered must produce byte-identical text to a direct
// run at the same scale.
func TestManifestRoundTripMatchesDirectRun(t *testing.T) {
	var direct bytes.Buffer
	if err := Run("table1", Options{Scale: 0.1, Out: &direct}); err != nil {
		t.Fatal(err)
	}

	man := telemetry.NewManifest(0.1)
	reg := telemetry.NewRegistry()
	var live bytes.Buffer
	if err := Run("table1", Options{Scale: 0.1, Out: &live, Manifest: man, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if live.String() != direct.String() {
		t.Fatal("manifest capture must not alter the live output")
	}
	man.AttachMetrics(reg)

	var ser bytes.Buffer
	if err := man.Write(&ser); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadManifest(&ser)
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := got.RenderText(&rendered); err != nil {
		t.Fatal(err)
	}
	if rendered.String() != direct.String() {
		t.Errorf("report rendering diverged from the direct run:\n--- direct ---\n%s\n--- report ---\n%s",
			direct.String(), rendered.String())
	}

	// The manifest must carry structured measurements behind the text:
	// table1 measures 5 systems x 6 microbenchmarks through the pipeline.
	if len(got.Runs) != 1 || got.Runs[0].ID != "table1" {
		t.Fatalf("runs wrong: %+v", got.Runs)
	}
	mms := got.Runs[0].Measurements
	if len(mms) != 30 {
		t.Errorf("got %d measurements, want 30", len(mms))
	}
	for _, mm := range mms {
		if mm.Kind != "pipeline" || mm.Pipe == nil || mm.Pipe.Cycles == 0 {
			t.Fatalf("measurement missing pipeline stats: %+v", mm)
		}
		if mm.Events == 0 {
			t.Fatalf("measurement missing event count: %+v", mm)
		}
	}
	// And the registry snapshot must have counted those measures.
	var measures float64
	for _, m := range got.Metrics {
		if m.Name == "core.measures" {
			measures = m.Value
		}
	}
	if measures != 30 {
		t.Errorf("core.measures = %g, want 30", measures)
	}
}

// TestRunTraceExport drives an experiment with a tracer and validates the
// exported file against the Chrome trace-event JSON Object Format
// (chrome://tracing / Perfetto): traceEvents array, name/ph/ts/pid/tid on
// every record, dur on complete events, and the experiment span enclosing
// its measure spans.
func TestRunTraceExport(t *testing.T) {
	tr := telemetry.NewTracer()
	if err := Run("fig1", Options{Scale: 0.1, Out: &bytes.Buffer{}, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events recorded")
	}
	var expTs, expEnd float64
	var measures int
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		ts, tsOK := ev["ts"].(float64)
		if name == "" || ph == "" || !tsOK || ts < 0 {
			t.Fatalf("malformed trace event: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
		dur, durOK := ev["dur"].(float64)
		if ph == "X" && (!durOK || dur < 0) {
			t.Fatalf("complete event missing dur: %v", ev)
		}
		if strings.HasPrefix(name, "experiment ") {
			expTs, expEnd = ts, ts+dur
		}
		if strings.HasPrefix(name, "measure ") {
			measures++
		}
	}
	if expEnd == 0 {
		t.Fatal("no experiment span recorded")
	}
	if measures == 0 {
		t.Fatal("no measure spans recorded")
	}
	// Every span must fall inside the experiment span.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		ts := ev["ts"].(float64)
		end := ts + ev["dur"].(float64)
		if ts < expTs-1 || end > expEnd+1 {
			t.Errorf("span %v [%g,%g] escapes experiment span [%g,%g]",
				ev["name"], ts, end, expTs, expEnd)
		}
	}
}

// TestOptionsOutDefaultsToStdout pins the satellite fix: a nil Out must
// not nil-deref — it falls back to os.Stdout.
func TestOptionsOutDefaultsToStdout(t *testing.T) {
	if got := (Options{}).out(); got != os.Stdout {
		t.Errorf("out() = %v, want os.Stdout", got)
	}
	var buf bytes.Buffer
	if got := (Options{Out: &buf}).out(); got != &buf {
		t.Error("explicit Out must win")
	}
}

// TestRunRejectsNegativeScale: a negative or non-finite scale is a clear
// error, not a silent clamp — and never reaches a guest or a cache key.
func TestRunRejectsNegativeScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		var out bytes.Buffer
		err := Run("table3", Options{Scale: scale, Out: &out})
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %g: want scale error, got %v", scale, err)
		}
		if out.Len() != 0 {
			t.Errorf("scale %g: rejected run still printed %q", scale, out.String())
		}
	}
}

func TestKnown(t *testing.T) {
	if !Known("table1") || Known("nope") {
		t.Error("Known misclassifies")
	}
}

// TestTelemetryMetricsPopulated checks that a telemetry-enabled run feeds
// the registry: run counts and event counts.  Every worker of a parallel
// batch updates the one registry, so none of its updates may be lost: a
// fig1 run on 4 workers must count one core.measures per manifest record,
// and core.events must equal the records' events summed.
func TestTelemetryMetricsPopulated(t *testing.T) {
	reg := telemetry.NewRegistry()
	if err := Run("table3", Options{Scale: 0.1, Out: &bytes.Buffer{}, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness.experiments").Value(); got != 1 {
		t.Errorf("harness.experiments = %d, want 1", got)
	}
	// table3 only prints config (no measures); a measuring experiment must
	// also count events.
	man := telemetry.NewManifest(0.1)
	if err := Run("fig1", Options{Scale: 0.1, Out: &bytes.Buffer{}, Parallelism: 4, Manifest: man, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	var records, events uint64
	for _, m := range man.Runs[0].Measurements {
		records++
		events += m.Events
	}
	if records == 0 || events == 0 {
		t.Fatalf("fig1 recorded %d measurements of %d events", records, events)
	}
	if got := reg.Counter("core.measures").Value(); got != records {
		t.Errorf("core.measures = %d, want one per manifest record (%d)", got, records)
	}
	if got := reg.Counter("core.events").Value(); got != events {
		t.Errorf("core.events = %d, want the manifest records' events summed (%d)", got, events)
	}
}
