package core

import (
	"reflect"
	"strings"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
)

// toyProgram emits a deterministic instruction stream through the probe.
func toyProgram(sys System) Program {
	return Program{
		System: sys, Name: "toy", Desc: "toy workload",
		Run: func(ctx *Ctx) error {
			r := ctx.Image.Routine("toy.loop", 64)
			op := ctx.Probe.OpName("work")
			for i := 0; i < 100; i++ {
				ctx.Probe.BeginCommand(op)
				ctx.Probe.Exec(r, 10)
				ctx.Probe.BeginExecute()
				ctx.Probe.Exec(r, 20)
				ctx.Probe.EndCommand()
			}
			ctx.SetProgramSize(123)
			if _, err := ctx.OS.Write(1, []byte("toy done\n")); err != nil {
				return err
			}
			return nil
		},
	}
}

func TestMeasureCollectsEverything(t *testing.T) {
	res, err := Measure(toyProgram(SysPerl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands() != 100 {
		t.Errorf("commands = %d", res.Commands())
	}
	if res.NativeInstructions() < 3000 || res.NativeInstructions() > 3300 {
		t.Errorf("instructions = %d, want 3000 + a small stdout-write charge", res.NativeInstructions())
	}
	// The dispatch-phase average also absorbs the stdout write (charged
	// between commands), so check the per-op account exactly and the
	// phase average loosely.
	work, ok := res.Stats.Op("work")
	if !ok || work.FetchDecode != 1000 || work.Execute != 2000 {
		t.Errorf("work op stats = %+v", work)
	}
	fd, ex := res.PerCommand()
	if fd < 10 || fd > 13 || ex != 20 {
		t.Errorf("fd=%v ex=%v", fd, ex)
	}
	if res.SizeBytes != 123 {
		t.Errorf("size = %d", res.SizeBytes)
	}
	if !strings.Contains(res.Stdout, "toy done") {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if res.Program.ID() != "Perl/toy" {
		t.Errorf("id = %q", res.Program.ID())
	}
}

func TestMeasureCSemantics(t *testing.T) {
	// For compiled C, commands equal native instructions and per-command
	// execute is 1.0 (Table 2's C row convention).
	p := Program{
		System: SysC, Name: "toy",
		Run: func(ctx *Ctx) error {
			r := ctx.Image.Routine("main", 32)
			ctx.Probe.Exec(r, 500)
			return nil
		},
	}
	res, err := Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands() != res.Counter.Total || res.Commands() == 0 {
		t.Errorf("C commands = %d, counter = %d", res.Commands(), res.Counter.Total)
	}
	fd, ex := res.PerCommand()
	if fd != 0 || ex != 1 {
		t.Errorf("C per-command = %v/%v", fd, ex)
	}
}

func TestMeasureWithPipeline(t *testing.T) {
	res, err := MeasureWithPipeline(toyProgram(SysTcl), alphasim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipe == nil {
		t.Fatal("pipe stats missing")
	}
	if res.Pipe.Instructions != res.Counter.Total {
		t.Errorf("pipeline saw %d events, counter %d", res.Pipe.Instructions, res.Counter.Total)
	}
	if res.Pipe.Cycles == 0 || res.Pipe.CPI() <= 0 {
		t.Error("no cycles simulated")
	}
}

func TestMeasureWithSweep(t *testing.T) {
	sweep := alphasim.DefaultICacheSweep()
	res, err := MeasureWithSweep(toyProgram(SysJava), sweep)
	if err != nil {
		t.Fatal(err)
	}
	pts := sweep.Points()
	if len(pts) != 12 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Instructions != res.Counter.Total {
			t.Errorf("%s saw %d events, want %d", pt.Label(), pt.Instructions, res.Counter.Total)
		}
	}
}

func TestMeasureErrorPropagates(t *testing.T) {
	p := Program{
		System: SysPerl, Name: "boom",
		Run: func(ctx *Ctx) error { return errBoom },
	}
	if _, err := Measure(p); err == nil || !strings.Contains(err.Error(), "Perl/boom") {
		t.Errorf("err = %v", err)
	}
}

var errBoom = &atomErr{}

type atomErr struct{}

func (*atomErr) Error() string { return "boom" }

func TestDisplayChecksumCaptured(t *testing.T) {
	p := Program{
		System: SysJava, Name: "draw",
		Run: func(ctx *Ctx) error {
			d := ctx.Display(32, 32)
			d.FillRect(0, 0, 16, 16, 5)
			return nil
		},
	}
	res, err := Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameChecksum == 0 {
		t.Error("frame checksum missing")
	}
}

var _ = atom.CodeBase

// openTestCache returns a writable cache in a per-test temp dir.
func openTestCache(t *testing.T) (*rescache.Cache, rescache.Scope) {
	t.Helper()
	c, err := rescache.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return c, rescache.Scope{Experiment: "core-test", Scale: 1}
}

// requireCacheFidelity compares a restored result against the fresh one it
// was cached from: everything a renderer reads must survive the round trip.
func requireCacheFidelity(t *testing.T, fresh, warm Result) {
	t.Helper()
	if fresh.FromCache {
		t.Error("first measurement claims FromCache")
	}
	if !warm.FromCache {
		t.Fatal("second measurement did not hit the cache")
	}
	if !reflect.DeepEqual(warm.Stats, fresh.Stats) {
		t.Errorf("stats differ: %+v != %+v", warm.Stats, fresh.Stats)
	}
	if warm.Counter != fresh.Counter {
		t.Errorf("counter differs: %+v != %+v", warm.Counter, fresh.Counter)
	}
	if warm.SizeBytes != fresh.SizeBytes || warm.FrameChecksum != fresh.FrameChecksum || warm.Stdout != fresh.Stdout {
		t.Errorf("size/checksum/stdout differ: %d/%d/%q != %d/%d/%q",
			warm.SizeBytes, warm.FrameChecksum, warm.Stdout,
			fresh.SizeBytes, fresh.FrameChecksum, fresh.Stdout)
	}
}

// TestMeasureCacheRoundTrip pins that a plain measurement restored from
// the cache is indistinguishable from the fresh run that populated it.
func TestMeasureCacheRoundTrip(t *testing.T) {
	cache, scope := openTestCache(t)
	p := toyProgram(SysPerl)
	fresh, err := Measure(p, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Measure(p, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	requireCacheFidelity(t, fresh, warm)
	hits, misses, puts, _ := cache.Counts()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Errorf("counts = %d hits, %d misses, %d puts; want 1/1/1", hits, misses, puts)
	}
}

// TestMeasureCachePipelineAndSweep pins fidelity for the richer
// measurement kinds: pipeline stats and sweep points must be restored, and
// a pipeline entry must not satisfy a plain-measure or sweep lookup.  A
// fused pipeline-and-sweep run must equal the two separate runs, restore
// both halves, and share no entry with a pipeline-only run.
func TestMeasureCachePipelineAndSweep(t *testing.T) {
	cache, scope := openTestCache(t)
	p := toyProgram(SysTcl)
	cfg := alphasim.DefaultConfig()
	fresh, err := MeasureWithPipeline(p, cfg, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MeasureWithPipeline(p, cfg, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	requireCacheFidelity(t, fresh, warm)
	if warm.Pipe == nil || *warm.Pipe != *fresh.Pipe {
		t.Errorf("pipeline stats not restored: %+v != %+v", warm.Pipe, fresh.Pipe)
	}

	// A different kind of the same program must miss, not reuse the entry.
	plain, err := Measure(p, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FromCache {
		t.Error("plain measure hit a pipeline entry")
	}

	coldSweep := alphasim.DefaultICacheSweep()
	if _, err := MeasureWithSweep(p, coldSweep, WithCache(cache, scope)); err != nil {
		t.Fatal(err)
	}
	warmSweep := alphasim.DefaultICacheSweep()
	res, err := MeasureWithSweep(p, warmSweep, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache {
		t.Fatal("sweep re-measurement did not hit the cache")
	}
	if !reflect.DeepEqual(warmSweep.Points(), coldSweep.Points()) {
		t.Errorf("sweep points not restored:\n%+v\nvs\n%+v", warmSweep.Points(), coldSweep.Points())
	}

	// The fused run must miss the pipeline-only entry stored above, and
	// match the separate pipeline and sweep runs.
	fusedSweep := alphasim.DefaultICacheSweep()
	fused, err := MeasureWithPipelineAndSweep(p, cfg, fusedSweep, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	if fused.FromCache {
		t.Error("fused run hit a pipeline-only entry")
	}
	if fused.Pipe == nil || *fused.Pipe != *fresh.Pipe {
		t.Errorf("fused pipeline stats %+v != separate %+v", fused.Pipe, fresh.Pipe)
	}
	if !reflect.DeepEqual(fused.Stats, fresh.Stats) || fused.Counter != fresh.Counter {
		t.Errorf("fused stats/counter %+v/%+v != separate %+v/%+v", fused.Stats, fused.Counter, fresh.Stats, fresh.Counter)
	}
	if !reflect.DeepEqual(fusedSweep.Points(), coldSweep.Points()) {
		t.Errorf("fused sweep points differ from a separate sweep:\n%+v\nvs\n%+v", fusedSweep.Points(), coldSweep.Points())
	}
	warmFusedSweep := alphasim.DefaultICacheSweep()
	warmFused, err := MeasureWithPipelineAndSweep(p, cfg, warmFusedSweep, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	requireCacheFidelity(t, fused, warmFused)
	if warmFused.Pipe == nil || *warmFused.Pipe != *fused.Pipe {
		t.Errorf("fused pipeline stats not restored: %+v != %+v", warmFused.Pipe, fused.Pipe)
	}
	if !reflect.DeepEqual(warmFusedSweep.Points(), fusedSweep.Points()) {
		t.Errorf("fused sweep points not restored:\n%+v\nvs\n%+v", warmFusedSweep.Points(), fusedSweep.Points())
	}

	// A pipeline-only lookup must miss a cache holding only the fused entry.
	fusedOnly, fusedScope := openTestCache(t)
	if _, err := MeasureWithPipelineAndSweep(p, cfg, alphasim.DefaultICacheSweep(), WithCache(fusedOnly, fusedScope)); err != nil {
		t.Fatal(err)
	}
	pipeOnly, err := MeasureWithPipeline(p, cfg, WithCache(fusedOnly, fusedScope))
	if err != nil {
		t.Fatal(err)
	}
	if pipeOnly.FromCache {
		t.Error("pipeline-only measure hit a fused entry")
	}
}

// TestMeasureCacheProfileRestored pins that a profiled measurement's
// attribution profile survives the cache round trip (the folded output is
// what the determinism golden test compares byte-for-byte).
func TestMeasureCacheProfileRestored(t *testing.T) {
	cache, scope := openTestCache(t)
	p := toyProgram(SysJava)
	fresh, err := Measure(p, WithCache(cache, scope), WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Measure(p, WithCache(cache, scope), WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	requireCacheFidelity(t, fresh, warm)
	if warm.Profile == nil {
		t.Fatal("profile not restored")
	}
	if !reflect.DeepEqual(warm.Profile.Samples, fresh.Profile.Samples) {
		t.Errorf("profile samples differ after restore")
	}

	// An unprofiled lookup of the same program must not see the profiled
	// entry (and vice versa): Profiling is part of the key.
	plain, err := Measure(p, WithCache(cache, scope))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FromCache {
		t.Error("unprofiled measure hit a profiled entry")
	}
}

// TestMeasureTelemetryFidelity pins that instrumenting a run with
// telemetry does not perturb the measurement: stats, counters and pipeline
// results are identical with and without a registry and tracer, and the
// instrumented run is counted and traced.
func TestMeasureTelemetryFidelity(t *testing.T) {
	p := toyProgram(SysPerl)
	plain, err := MeasureWithPipeline(p, alphasim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	observed, err := MeasureWithPipeline(p, alphasim.DefaultConfig(),
		WithTelemetry(reg), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if observed.Counter != plain.Counter {
		t.Errorf("counter perturbed: %+v != %+v", observed.Counter, plain.Counter)
	}
	if observed.Stats.Instructions != plain.Stats.Instructions ||
		observed.Stats.Commands != plain.Stats.Commands {
		t.Errorf("stats perturbed: %+v != %+v", observed.Stats, plain.Stats)
	}
	if *observed.Pipe != *plain.Pipe {
		t.Errorf("pipeline perturbed: %+v != %+v", observed.Pipe, plain.Pipe)
	}
	if reg.Counter("core.measures").Value() != 1 {
		t.Errorf("core.measures = %d, want 1", reg.Counter("core.measures").Value())
	}
	if len(tr.Events()) == 0 {
		t.Error("tracer recorded no spans")
	}
}

// TestProfilingBatchModeSelection pins how run() picks the profiling
// batching mode: a plain profiled measurement delivers no block at all —
// the collector charges the probe's tally — while pipeline runs, whose
// cache-miss callbacks join on the collector's current node, force a flush
// per attribution transition.  A pipeline run that also feeds a sweep must
// keep the pipeline's miss attribution: its imiss and dmiss totals equal
// the pipeline-only run's.
func TestProfilingBatchModeSelection(t *testing.T) {
	plain, err := Measure(toyProgram(SysPerl), WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Profile == nil {
		t.Fatal("profile missing")
	}
	if plain.Batch != (trace.BatchStats{}) {
		t.Errorf("plain profiled run delivered blocks: %+v, want none", plain.Batch)
	}
	piped, err := MeasureWithPipeline(toyProgram(SysPerl), alphasim.DefaultConfig(), WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	if piped.Batch.FlushAttr == 0 {
		t.Error("miss-joining pipeline run must flush per attribution transition")
	}
	// Mode must not change the numbers: both runs fold the same stream.
	if got, want := plain.Profile.Total(profile.SampleInstructions), int64(plain.Stats.Instructions); got != want {
		t.Errorf("plain profile total = %d, want %d", got, want)
	}
	if got, want := piped.Profile.Total(profile.SampleInstructions), int64(piped.Stats.Instructions); got != want {
		t.Errorf("piped profile total = %d, want %d", got, want)
	}
	fused, err := MeasureWithPipelineAndSweep(toyProgram(SysPerl), alphasim.DefaultConfig(), alphasim.DefaultICacheSweep(), WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	if fused.Batch.FlushAttr == 0 {
		t.Error("miss-joining fused run must flush per attribution transition")
	}
	for _, vi := range []int{profile.SampleIMiss, profile.SampleDMiss} {
		name := profile.SampleTypes[vi].Type
		want := piped.Profile.Total(vi)
		if want == 0 {
			t.Errorf("pipeline run attributed no %s; the comparison below proves nothing", name)
		}
		if got := fused.Profile.Total(vi); got != want {
			t.Errorf("fused run attributed %d %s, pipeline-only %d: miss observer lost", got, name, want)
		}
	}
}
