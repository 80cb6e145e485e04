package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
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

// mainHelperEnv switches TestMainHelperProcess from a skip into the body of
// a re-exec'd interp-lab.
const mainHelperEnv = "INTERP_LAB_MAIN_HELPER"

// TestMainHelperProcess is not a test: it is the body of the re-exec'd CLI
// in TestSubcommandUsageErrors.  It runs main with the arguments after
// "--" and exits 0 if main returns.
func TestMainHelperProcess(t *testing.T) {
	if os.Getenv(mainHelperEnv) != "1" {
		t.Skip("helper process body; driven by TestSubcommandUsageErrors")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Args = append([]string{"interp-lab"}, args...)
	main()
	os.Exit(0)
}

// TestSubcommandUsageErrors re-execs the test binary as interp-lab with a
// bad flag value for one subcommand at a time: each must exit 2 and print
// that subcommand's usage, not the top-level usage with its experiment
// list.
func TestSubcommandUsageErrors(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec test binary: %v", err)
	}
	for _, args := range [][]string{
		{"serve", "-queue", "0"},
		{"serve", "-parallel", "0"},
		{"profile", "-parallel", "0", "fig1"},
		{"bench-telemetry", "-sched-parallelism", "0"},
		{"cache", "-dir", t.TempDir(), "bogus"},
		{"sched-report"},
	} {
		cmd := exec.Command(exe, append([]string{"-test.run=^TestMainHelperProcess$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), mainHelperEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("interp-lab %s: exit %v, want status 2\n%s", strings.Join(args, " "), err, stderr.String())
			continue
		}
		if want := "usage: interp-lab " + args[0]; !strings.Contains(stderr.String(), want) {
			t.Errorf("interp-lab %s: stderr lacks %q:\n%s", strings.Join(args, " "), want, stderr.String())
		}
		if strings.Contains(stderr.String(), "experiments:") {
			t.Errorf("interp-lab %s: stderr carries the top-level usage:\n%s", strings.Join(args, " "), stderr.String())
		}
	}
}
