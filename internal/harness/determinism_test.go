package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

// detScale is the workload scale of the determinism golden test.  The
// race-detector build (race_scale_test.go) shrinks it: the instrumented
// runs are an order of magnitude slower and would blow the package's test
// timeout, and the byte-identity property does not depend on scale.
var detScale = 0.1

// detOut is what detRun captures from one experiment run.
type detOut struct {
	text   string // rendered text
	runs   []byte // manifest run entries
	folded string // merged folded profile
	pprof  []byte // the merged profile's pprof encoding
	// measured counts the manifest's measurement records, and guestRuns
	// the guest executions behind them (the registry's core.measures).
	measured  int
	guestRuns uint64
	records   []telemetry.Measurement // the manifest's measurement records
}

// detRun executes one experiment with a manifest, profile set, and
// telemetry registry attached and returns everything the parallel
// scheduler and the measurement cache promise to keep byte-identical: the
// rendered text, the manifest run entries (wall times zeroed — they vary
// even between two serial runs — and cache_hit zeroed, the one field that
// legitimately flips between a cold and a warm run), the merged folded
// profile, and its pprof encoding.
func detRun(t *testing.T, id string, parallelism int, cache *rescache.Cache) detOut {
	t.Helper()
	var buf bytes.Buffer
	man := telemetry.NewManifest(detScale)
	set := profile.NewSet()
	reg := telemetry.NewRegistry()
	opt := Options{Scale: detScale, Out: &buf, Parallelism: parallelism, Manifest: man, Profile: set, Cache: cache, Telemetry: reg}
	if err := Run(id, opt); err != nil {
		t.Fatalf("%s (parallelism %d): %v", id, parallelism, err)
	}
	out := detOut{text: buf.String(), guestRuns: reg.Counter("core.measures").Value()}
	for _, r := range man.Runs {
		r.DurationUS = 0
		// The sched block records scheduling itself — timestamps, worker
		// assignment, runtime churn — so it legitimately differs between
		// serial and parallel runs; null it like the wall times.
		r.Sched = nil
		for i := range r.Measurements {
			r.Measurements[i].DurationUS = 0
			r.Measurements[i].CacheHit = false
		}
		out.measured += len(r.Measurements)
		out.records = append(out.records, r.Measurements...)
	}
	var err error
	if out.runs, err = json.Marshal(man.Runs); err != nil {
		t.Fatal(err)
	}
	merged := set.Merged()
	var fb, pb bytes.Buffer
	if err := merged.WriteFolded(&fb, profile.SampleInstructions); err != nil {
		t.Fatal(err)
	}
	if err := merged.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	out.folded, out.pprof = fb.String(), pb.Bytes()
	return out
}

// TestParallelOutputIsByteIdentical is the scheduler's acceptance test:
// for every experiment, a run on 8 workers must produce byte-identical
// rendered text, manifest entries, and folded profiles to a serial run.
// Ordered collection in the batch makes this hold by construction; this
// test pins it against regressions (including any nondeterminism in the
// measured systems themselves, which would show up here first).  Both
// runs must also execute the guest exactly once per recorded measurement:
// a sweep is one job at any parallelism, never one re-run per geometry.
// The cold benchmark's experiments run each distinct program once, so
// their guest-run counts are pinned exactly: an opt-matrix cell is one
// pipeline run that also fills its 12-point sweep, and ablation's
// default-knob MIPSI des is one run shared by three sections.  Every
// record carries its program's size, knob arms included.
func TestParallelOutputIsByteIdentical(t *testing.T) {
	wantGuestRuns := map[string]uint64{"table1": 30, "ablation": 12, "opt-matrix": 10}
	for _, id := range Experiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			s := detRun(t, id, 1, nil)
			p := detRun(t, id, 8, nil)
			for parallelism, out := range map[int]detOut{1: s, 8: p} {
				if out.guestRuns != uint64(out.measured) {
					t.Errorf("parallelism %d ran the guest %d times for %d measurements, want once each",
						parallelism, out.guestRuns, out.measured)
				}
				if want, ok := wantGuestRuns[id]; ok && out.guestRuns != want {
					t.Errorf("parallelism %d ran the guest %d times, want %d", parallelism, out.guestRuns, want)
				}
				for _, m := range out.records {
					if m.SizeBytes <= 0 {
						t.Errorf("parallelism %d: record %s %s has size_bytes %d, want the program's size",
							parallelism, m.Program, m.Variant, m.SizeBytes)
					}
					if id == "opt-matrix" && (m.Kind == "sweep" || len(m.Sweep) != 12) {
						t.Errorf("parallelism %d: opt-matrix record %s %s is kind %q with %d sweep points, want a fused record with 12",
							parallelism, m.Program, m.Variant, m.Kind, len(m.Sweep))
					}
				}
			}
			if s.text != p.text {
				t.Errorf("rendered text differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", s.text, p.text)
			}
			if !bytes.Equal(s.runs, p.runs) {
				t.Errorf("manifest entries differ between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", s.runs, p.runs)
			}
			if s.folded != p.folded {
				t.Errorf("folded profiles differ between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", s.folded, p.folded)
			}
			if !bytes.Equal(s.pprof, p.pprof) {
				t.Error("pprof encodings differ between serial and parallel")
			}
		})
	}
}

// TestWarmCacheOutputIsByteIdentical is the measurement cache's acceptance
// test: for every experiment, a cold run through an empty cache and a warm
// run (all results restored from disk) must both produce byte-identical
// rendered text, manifest entries, and folded profiles to an uncached run.
// The uncached baseline matters: a key collision inside one experiment
// (two same-ID program variants sharing an entry) corrupts cold and warm
// runs identically, so only the comparison against ground truth exposes
// it — exactly the bug the Program.Variant key field guards against.  The
// cold run is serial and the warm run parallel, so a cache key that
// depended on parallelism would show up as warm misses.
func TestWarmCacheOutputIsByteIdentical(t *testing.T) {
	for _, id := range Experiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cache, err := rescache.Open(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			base := detRun(t, id, 1, nil)
			cold := detRun(t, id, 1, cache)
			_, coldMisses, _, _ := cache.Counts()
			warm := detRun(t, id, 8, cache)
			hits, misses, puts, _ := cache.Counts()
			// Config-only experiments (table3) measure nothing, so the
			// cache legitimately stays idle; every measuring experiment
			// must store each cold result and restore each warm one.
			if base.measured > 0 && (hits == 0 || puts == 0) {
				t.Fatalf("cache never engaged: hits=%d misses=%d puts=%d", hits, misses, puts)
			}
			if misses != puts {
				t.Errorf("warm run missed: %d misses for %d cold puts", misses, puts)
			}
			if misses != coldMisses {
				t.Errorf("parallel warm run missed %d entries the serial cold run should have stored", misses-coldMisses)
			}
			for _, arm := range []struct {
				name string
				out  detOut
			}{{"cold", cold}, {"warm", warm}} {
				if arm.out.text != base.text {
					t.Errorf("rendered text differs between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", arm.name, base.text, arm.name, arm.out.text)
				}
				if !bytes.Equal(arm.out.runs, base.runs) {
					t.Errorf("manifest entries differ between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", arm.name, base.runs, arm.name, arm.out.runs)
				}
				if arm.out.folded != base.folded {
					t.Errorf("folded profiles differ between uncached and %s:\n--- uncached ---\n%s\n--- %s ---\n%s", arm.name, base.folded, arm.name, arm.out.folded)
				}
			}
		})
	}
}

// TestNegativeParallelismRejected pins the Options contract: 0 means
// GOMAXPROCS, but a negative worker count is a caller bug and must be
// rejected up front, not silently coerced.
func TestNegativeParallelismRejected(t *testing.T) {
	err := Run("table3", Options{Scale: 0.1, Out: &bytes.Buffer{}, Parallelism: -4})
	if err == nil {
		t.Fatal("Parallelism -4 must be rejected")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("-4")) {
		t.Errorf("error should name the bad value: %q", got)
	}
}
