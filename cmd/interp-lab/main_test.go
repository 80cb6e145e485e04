package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"interplab/internal/harness"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

// TestValidateParallel pins the CLI contract for -parallel: any value
// below 1 — including zero, which the library would treat as GOMAXPROCS —
// is a usage error naming the offending value.
func TestValidateParallel(t *testing.T) {
	for _, n := range []int{-4, -1, 0} {
		err := validateParallel(n)
		if err == nil {
			t.Errorf("validateParallel(%d) = nil, want error", n)
			continue
		}
		if !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("validateParallel(%d) error should mention the flag: %q", n, err)
		}
	}
	for _, n := range []int{1, 2, 64} {
		if err := validateParallel(n); err != nil {
			t.Errorf("validateParallel(%d) = %v, want nil", n, err)
		}
	}
}

// TestValidateServeLimits pins the serve flags' contract: a zero or
// negative -queue, -request-timeout or -drain-timeout is a usage error
// naming the flag.
func TestValidateServeLimits(t *testing.T) {
	const q, rt, dt = 64, 2 * time.Minute, time.Minute
	cases := []struct {
		queue  int
		rt, dt time.Duration
		flag   string // "" means valid
	}{
		{q, rt, dt, ""},
		{1, time.Millisecond, time.Millisecond, ""},
		{0, rt, dt, "-queue"},
		{-1, rt, dt, "-queue"},
		{q, 0, dt, "-request-timeout"},
		{q, -time.Second, dt, "-request-timeout"},
		{q, rt, 0, "-drain-timeout"},
		{q, rt, -time.Second, "-drain-timeout"},
	}
	for _, tc := range cases {
		err := validateServeLimits(tc.queue, tc.rt, tc.dt)
		if tc.flag == "" {
			if err != nil {
				t.Errorf("validateServeLimits(%d, %v, %v) = %v, want nil", tc.queue, tc.rt, tc.dt, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("validateServeLimits(%d, %v, %v) = %v, want an error naming %s", tc.queue, tc.rt, tc.dt, err, tc.flag)
		}
	}
}

// TestValidateScale pins the CLI contract for -scale: zero, negative, NaN
// and infinite values are usage errors naming the flag.
func TestValidateScale(t *testing.T) {
	for _, f := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := validateScale(f)
		if err == nil {
			t.Errorf("validateScale(%g) = nil, want error", f)
			continue
		}
		if !strings.Contains(err.Error(), "-scale") {
			t.Errorf("validateScale(%g) error should mention the flag: %q", f, err)
		}
	}
	for _, f := range []float64{0.05, 1, 4} {
		if err := validateScale(f); err != nil {
			t.Errorf("validateScale(%g) = %v, want nil", f, err)
		}
	}
}

// TestCacheInfoSummarizesCounts covers the manifest config.cache summary:
// nil cache yields no summary; an attached cache reports its directory,
// mode, fingerprint and counters.
func TestCacheInfoSummarizesCounts(t *testing.T) {
	if cacheInfo(nil) != nil {
		t.Error("cacheInfo(nil) should be nil")
	}
	dir := t.TempDir()
	c, err := rescache.Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	info := cacheInfo(c)
	if info == nil {
		t.Fatal("cacheInfo returned nil for an open cache")
	}
	if info.Dir != dir || !info.ReadOnly {
		t.Errorf("info = %+v, want dir %s readonly", info, dir)
	}
	if info.Fingerprint != rescache.Fingerprint() {
		t.Errorf("fingerprint = %q, want %q", info.Fingerprint, rescache.Fingerprint())
	}
}

// TestReportMalformedManifest pins the error contract: a truncated or
// non-manifest file must fail with a single-line error naming the file,
// not surface a raw JSON decode error.
func TestReportMalformedManifest(t *testing.T) {
	for _, fixture := range []string{
		filepath.Join("testdata", "truncated.json"),
		filepath.Join("testdata", "not-manifest.json"),
	} {
		err := report(fixture, io.Discard)
		if err == nil {
			t.Fatalf("%s: expected an error", fixture)
		}
		msg := err.Error()
		if !strings.Contains(msg, fixture) {
			t.Errorf("%s: error does not name the file: %q", fixture, msg)
		}
		if strings.Contains(msg, "\n") {
			t.Errorf("%s: error is not one line: %q", fixture, msg)
		}
	}
}

// TestReportMissingFileNamesFile covers the open-error path.
func TestReportMissingFileNamesFile(t *testing.T) {
	err := report(filepath.Join("testdata", "no-such-manifest.json"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no-such-manifest.json") {
		t.Errorf("missing-file error should name the file, got %v", err)
	}
}

// TestReportRoundTrip exercises the happy path end to end: write a real
// manifest, re-render it, and compare with the direct run.
func TestReportRoundTrip(t *testing.T) {
	var direct bytes.Buffer
	if err := harness.Run("table3", harness.Options{Scale: 0.1, Out: &direct}); err != nil {
		t.Fatal(err)
	}
	man := telemetry.NewManifest(0.1)
	if err := harness.Run("table3", harness.Options{Scale: 0.1, Out: io.Discard, Manifest: man}); err != nil {
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
	var rendered bytes.Buffer
	if err := report(path, &rendered); err != nil {
		t.Fatal(err)
	}
	if rendered.String() != direct.String() {
		t.Errorf("report output differs from direct run:\n%q\nvs\n%q", rendered.String(), direct.String())
	}
}
