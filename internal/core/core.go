// Package core is the laboratory's public face: it ties workload programs,
// the instrumentation layer (internal/atom), and the processor simulator
// (internal/alphasim) into the measurement pipeline the paper's numbers
// come from.
//
// A Program knows how to run some benchmark under one of the five systems
// (compiled C, MIPSI, Java, Perl, Tcl).  Measure runs it against a fresh
// image/probe/OS and returns a Result holding the paper's software metrics
// (virtual commands, native instructions, fetch/decode vs. execute,
// per-command and per-region accounts).  MeasureWithPipeline additionally
// streams the native-instruction trace through the simulated 2-issue
// processor and reports cycles and stall breakdowns (Figure 3),
// MeasureWithSweep drives the Figure 4 instruction-cache sweeps, and
// MeasureWithPipelineAndSweep feeds both from one run of the program.
package core

import (
	"fmt"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/gfx"
	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// System identifies one of the measured execution systems.
type System string

// The five systems of the paper.
const (
	SysC     System = "C"
	SysMIPSI System = "MIPSI"
	SysJava  System = "Java"
	SysPerl  System = "Perl"
	SysTcl   System = "Tcl"
)

// Ctx is the per-run environment handed to a program.
type Ctx struct {
	Image *atom.Image
	Probe *atom.Probe
	Sink  trace.Sink
	OS    *vfs.OS
	// Slots, when non-nil, is the pool a producer the workload builds
	// itself (the compiled-C path's mipsi.Native) borrows a delivery
	// goroutine's slot from (WithSlots).
	Slots *trace.Slots

	display *gfx.Display
	size    int
	batch   trace.BatchStats
	native  trace.Counter
}

// Display lazily creates the run's framebuffer (native graphics library).
func (c *Ctx) Display(w, h int) *gfx.Display {
	if c.display == nil {
		c.display = gfx.New(c.Image, c.Probe, w, h)
	}
	return c.display
}

// SetProgramSize records the interpreted program's input size in bytes —
// Table 2's "Size" column.
func (c *Ctx) SetProgramSize(n int) { c.size = n }

// RecordBatch merges a workload-side producer's batch accounting into the
// run's totals — the compiled-C path (mipsi.Native) batches internally,
// bypassing the probe, and reports here so Result.Batch covers the whole
// stream.
func (c *Ctx) RecordBatch(bs trace.BatchStats) { c.batch.Add(bs) }

// NativeTally returns the tally that a workload-side producer emitting
// beside the probe — the compiled-C path's mipsi.Native — counts into, so
// that the run's Result.Counter and profiler see its events.
func (c *Ctx) NativeTally() *trace.Counter { return &c.native }

// Counter returns the run's stream tally so far: the probe's plus the
// native producer's.
func (c *Ctx) Counter() trace.Counter {
	n := *c.Probe.Tally()
	n.Add(c.native)
	return n
}

// Program is one benchmark under one system.
type Program struct {
	System System
	Name   string
	Desc   string
	Run    func(ctx *Ctx) error

	// Variant distinguishes programs that share an ID but run the
	// interpreter with different knobs (the ablation's flat-memory,
	// threaded-dispatch, and cached-parse arms all measure "MIPSI/des"-
	// style identities).  It does not appear in rendered output, but it is
	// part of the measurement-cache key: two same-ID programs whose
	// behavior differs MUST carry different variants, or the cache would
	// hand one the other's result.
	Variant string
}

// ID returns "system/name".
func (p Program) ID() string { return fmt.Sprintf("%s/%s", p.System, p.Name) }

// Result is the outcome of a measured run.
type Result struct {
	Program Program

	// Stats holds the probe's books: commands, instruction phases,
	// per-op and per-region accounts.  For SysC runs the probe is unused
	// and Stats is zero except where noted.
	Stats atom.Stats

	// Counter tallies the emitted native-instruction stream, as its
	// producers counted it at emit time.
	Counter trace.Counter

	// SizeBytes is the interpreted program's input size.
	SizeBytes int

	// Pipe holds processor-simulation results when requested.
	Pipe *alphasim.Stats

	// Display output digest, when the workload drew.
	FrameChecksum uint32

	// Stdout is the run's captured console output.
	Stdout string

	// Profile holds the attribution profile when the run was measured with
	// WithProfiling; nil otherwise.  For pipeline runs it includes
	// cache-miss attribution.
	Profile *profile.Profile

	// FromCache reports that the result was restored from the measurement
	// cache (WithCache) instead of executing the workload.  Restored
	// results are byte-for-byte interchangeable with fresh ones.
	FromCache bool

	// Batch accounts the batched event pipeline: events and blocks
	// delivered to the simulating sinks, split by flush trigger, summed
	// over every producer in the run (the probe, plus the compiled-C
	// path's internal batcher).  All zero for a run without a pipeline or
	// sweep, which builds no blocks.
	Batch trace.BatchStats
}

// Commands returns the virtual-command count.  For compiled C the paper
// equates commands with native instructions (Table 2's C row).
func (r Result) Commands() uint64 {
	if r.Program.System == SysC {
		return r.Counter.Total
	}
	return r.Stats.Commands
}

// NativeInstructions returns the total native instructions executed,
// excluding startup (precompilation), matching Table 2's accounting.
func (r Result) NativeInstructions() uint64 {
	if r.Program.System == SysC {
		return r.Counter.Total
	}
	return r.Stats.Instructions - r.Stats.Startup
}

// StartupInstructions returns the precompilation charge (Perl's
// parenthesized column in Table 2).
func (r Result) StartupInstructions() uint64 { return r.Stats.Startup }

// PerCommand returns the fetch/decode and execute averages of Table 2.
func (r Result) PerCommand() (fd, ex float64) {
	if r.Program.System == SysC {
		return 0, 1
	}
	return r.Stats.InstructionsPerCommand()
}

// measureConfig carries the optional instrumentation of a measured run.
type measureConfig struct {
	tracer    *telemetry.Tracer
	reg       *telemetry.Registry
	profiling bool
	lane      int
	slots     *trace.Slots

	cache      *rescache.Cache
	cacheScope rescache.Scope
}

// newMeasureConfig applies the options.
func newMeasureConfig(opts []MeasureOption) measureConfig {
	var mc measureConfig
	for _, o := range opts {
		o(&mc)
	}
	return mc
}

// MeasureOption configures optional telemetry on Measure* calls.
type MeasureOption func(*measureConfig)

// WithTracer records spans for the run (workload execution, stats
// collection) into tr.  A nil tracer is allowed and disables tracing.
func WithTracer(tr *telemetry.Tracer) MeasureOption {
	return func(c *measureConfig) { c.tracer = tr }
}

// WithTelemetry counts the run into reg: cache hits and misses at lookup,
// and when the run ends its events, commands, errors and the block
// accounting of a simulated run.  It reads the producers' tallies, never
// the events, so it adds no event blocks and nothing to the emit path.  A
// nil registry is allowed and disables metrics.
func WithTelemetry(reg *telemetry.Registry) MeasureOption {
	return func(c *measureConfig) { c.reg = reg }
}

// WithTraceLane attributes the run's spans to the given trace lane
// (Chrome trace tid).  The harness's parallel scheduler gives each worker
// its own lane so concurrent runs render side by side; 0 (the default)
// means the main lane.
func WithTraceLane(lane int) MeasureOption {
	return func(c *measureConfig) { c.lane = lane }
}

// WithCache consults (and fills) the measurement cache c before executing:
// when an entry exists for the exact measurement — same lab build, same
// scope (experiment, scale), same program, kind, processor configuration,
// sweep geometry, and profiling mode — the Result is restored from disk
// without running the workload, and Result.FromCache is set.  On a miss the
// measurement runs normally and its result is stored (unless the cache is
// readonly).  A nil cache is allowed and disables caching.
func WithCache(c *rescache.Cache, scope rescache.Scope) MeasureOption {
	return func(mc *measureConfig) { mc.cache = c; mc.cacheScope = scope }
}

// WithSlots lets the run's simulators take its blocks on a delivery
// goroutine, beside the guest, while the producer holds a slot borrowed
// from s: a slot an idle worker of the caller's pool lent (see
// trace.Slots).  Results do not change.  A nil pool, and a profiled
// pipeline run, whose miss join reads the probe's attribution state,
// deliver inline.
func WithSlots(s *trace.Slots) MeasureOption {
	return func(c *measureConfig) { c.slots = s }
}

// WithProfiling attaches an attribution-profile collector to the run: the
// native-instruction stream is folded into call-stack samples keyed by
// interpreter routine, virtual opcode, and phase, returned as
// Result.Profile.  The collector charges the producers' tallies at each
// attribution change, so it adds no event blocks.  On pipeline runs it
// also receives cache-miss notifications, so misses are attributed to the
// routine/opcode that issued them.
func WithProfiling() MeasureOption {
	return func(c *measureConfig) { c.profiling = true }
}

// CacheKey builds the content address of one measurement of p in scope.
// Its kind is "pipeline" whenever cfg is non-nil, else "sweep" when sweep
// is non-nil, else "measure"; a fused pipeline-and-sweep run carries both
// the config and the sweep geometry.  The measure path stores its entry
// under this key, and the server keys its singleflight and advertised
// key on it, so the two cannot disagree.
func CacheKey(p Program, scope rescache.Scope, cfg *alphasim.Config, sweep *alphasim.ICacheSweep, profiling bool) rescache.Key {
	k := rescache.Key{
		Schema:      rescache.SchemaVersion,
		Fingerprint: rescache.Fingerprint(),
		Experiment:  scope.Experiment,
		Scale:       scope.Scale,
		Kind:        "measure",
		Program:     p.ID(),
		Variant:     p.Variant,
		Profiling:   profiling,
	}
	if sweep != nil {
		k.Kind, k.Sweep = "sweep", sweep.Geometry()
	}
	if cfg != nil {
		k.Kind, k.Config = "pipeline", rescache.ConfigKey(*cfg)
	}
	return k
}

// lookup consults the cache for key and, on a hit that valid accepts,
// restores the Result.  Hits and misses are counted in the run's telemetry
// registry so manifests expose the cache's effectiveness.
func (mc *measureConfig) lookup(p Program, key rescache.Key, valid func(*rescache.Entry) bool) (Result, bool) {
	if mc.cache == nil {
		return Result{}, false
	}
	e, ok := mc.cache.Get(key)
	if ok && !valid(e) {
		ok = false
	}
	if !ok {
		mc.reg.Counter("core.cache_misses").Inc()
		return Result{}, false
	}
	mc.reg.Counter("core.cache_hits").Inc()
	span := mc.tracer.StartOn(mc.lane, "cached "+p.ID(), "program", p.ID())
	span.End()
	res := Result{
		Program:       p,
		Stats:         e.Stats,
		Counter:       e.Counter,
		SizeBytes:     e.SizeBytes,
		Pipe:          e.Pipe,
		FrameChecksum: e.FrameChecksum,
		Stdout:        e.Stdout,
		Profile:       e.Profile,
		FromCache:     true,
	}
	if e.Batch != nil {
		res.Batch = *e.Batch
	}
	return res, true
}

// store writes a fresh measurement into the cache.  A failed write is
// counted but never fails the measurement: the result in hand is good, the
// cache just stays cold for this key.
func (mc *measureConfig) store(key rescache.Key, res Result, sweepPts []alphasim.SweepPoint) {
	if mc.cache == nil {
		return
	}
	e := &rescache.Entry{
		SizeBytes:     res.SizeBytes,
		Stdout:        res.Stdout,
		FrameChecksum: res.FrameChecksum,
		Counter:       res.Counter,
		Stats:         res.Stats,
		Pipe:          res.Pipe,
		Sweep:         sweepPts,
		Profile:       res.Profile,
	}
	if res.Batch != (trace.BatchStats{}) {
		b := res.Batch
		e.Batch = &b
	}
	if err := mc.cache.Put(key, e); err != nil {
		mc.reg.Counter("core.cache_put_errors").Inc()
	}
}

// run executes p against a fresh environment.  The producers count the
// stream as they emit it; events are built and fanned out only to the
// given simulating sinks, so a run without one builds no blocks.  The
// profiler reads the tallies.
func run(p Program, mc measureConfig, sinks ...trace.Sink) (Result, error) {
	res := Result{Program: p}
	var col *profile.Collector
	missJoin := false
	if mc.profiling {
		col = profile.NewCollector()
		// Each simulating sink that reports cache misses (the pipeline)
		// reports them to the collector.
		for _, s := range sinks {
			if mo, ok := s.(interface {
				SetMissObserver(alphasim.MissObserver)
			}); ok {
				mo.SetMissObserver(col)
				missJoin = true
			}
		}
	}
	fanned := trace.Combine(sinks...)
	img := atom.NewImage()
	probe := atom.NewProbe(img, fanned)
	osys := vfs.New()
	// Compiled-C runs emit their own synthetic kernel path (mipsi.Native);
	// instrumenting the vfs as well would double-charge system time.
	if p.System != SysC {
		osys.Instrument(img, probe)
	}
	ctx := &Ctx{Image: img, Probe: probe, Sink: fanned, OS: osys}
	// Every way out of the run, a guest error or panic included, ends
	// with a final flush, which ends a delivery goroutine; after the
	// flush at collect time this one finds nothing to do.
	defer probe.FlushEvents()
	if col != nil {
		// Only compiled C feeds the native tally.
		if p.System == SysC {
			col.Bind(probe, ctx.NativeTally())
		} else {
			col.Bind(probe)
		}
		if missJoin {
			// Miss attribution rides the pipeline's synchronous callbacks,
			// which land on the collector's current node — coherent only
			// when every delivered block is uniform under one attribution
			// state.
			probe.RequireAttrSync()
		}
	}
	if !missJoin {
		// One producer streams per run: compiled C through the workload's
		// own mipsi.Native, every other system through the probe.
		if p.System == SysC {
			ctx.Slots = mc.slots
		} else {
			probe.BorrowSlots(mc.slots)
		}
	}
	span := mc.tracer.StartOn(mc.lane, "workload "+p.ID(), "program", p.ID())
	err := p.Run(ctx)
	span.End()
	if err != nil {
		mc.reg.Counter("core.errors").Inc()
		return res, fmt.Errorf("%s: %w", p.ID(), err)
	}
	collect := mc.tracer.StartOn(mc.lane, "collect "+p.ID())
	// Drain the probe's buffered tail before reading any simulator state.
	probe.FlushEvents()
	res.Batch = probe.BatchStats()
	res.Batch.Add(ctx.batch)
	res.Stats = probe.Stats()
	res.Counter = ctx.Counter()
	res.SizeBytes = ctx.size
	res.Stdout = osys.Stdout.String()
	if ctx.display != nil {
		res.FrameChecksum = ctx.display.Checksum()
	}
	if col != nil {
		res.Profile = col.Profile(p.ID())
	}
	collect.End()
	mc.reg.Counter("core.measures").Inc()
	mc.reg.Counter("core.events").Add(res.Counter.Total)
	mc.reg.Histogram("core.events_per_run").Observe(res.Counter.Total)
	mc.reg.Histogram("core.commands_per_run").Observe(res.Commands())
	if b := res.Batch; b.Blocks > 0 {
		mc.reg.Counter("trace.batch.events").Add(b.Events)
		mc.reg.Counter("trace.batch.blocks").Add(b.Blocks)
		mc.reg.Counter("trace.batch.flush_fill").Add(b.FlushFill)
		mc.reg.Counter("trace.batch.flush_attr").Add(b.FlushAttr)
		mc.reg.Counter("trace.batch.flush_final").Add(b.FlushFinal)
		mc.reg.Counter("trace.batch.handoffs").Add(b.Handoffs)
		bs := mc.tracer.StartOn(telemetry.BatchLane, "batch "+p.ID(),
			"events", b.Events, "blocks", b.Blocks,
			"flush_fill", b.FlushFill, "flush_attr", b.FlushAttr, "flush_final", b.FlushFinal)
		bs.End()
	}
	return res, err
}

// Measure runs p and collects the software metrics only.
func Measure(p Program, opts ...MeasureOption) (Result, error) {
	return measure(p, nil, nil, opts)
}

// MeasureWithPipeline runs p with the trace streaming through a simulated
// processor.
func MeasureWithPipeline(p Program, cfg alphasim.Config, opts ...MeasureOption) (Result, error) {
	return measure(p, &cfg, nil, opts)
}

// MeasureWithSweep runs p once while probing every geometry of the
// instruction-cache sweep (Figure 4).  On a cache hit the sweep's points
// are restored from the entry, so callers reading sweep.Points() see the
// same counts a live run would have accumulated.
func MeasureWithSweep(p Program, sweep *alphasim.ICacheSweep, opts ...MeasureOption) (Result, error) {
	return measure(p, nil, sweep, opts)
}

// MeasureWithPipelineAndSweep runs p once and fans its trace out to both a
// simulated processor and the instruction-cache sweep: the result and the
// sweep's points equal those of a MeasureWithPipeline plus a
// MeasureWithSweep of p, from one guest execution.  The measurement is
// cached as a pipeline entry keyed by the sweep's geometry too, so it
// neither answers nor is answered by a plain pipeline measurement.  A nil
// sweep makes it MeasureWithPipeline.
func MeasureWithPipelineAndSweep(p Program, cfg alphasim.Config, sweep *alphasim.ICacheSweep, opts ...MeasureOption) (Result, error) {
	return measure(p, &cfg, sweep, opts)
}

// measure is the one measurement path behind the Measure* functions: it
// consults the cache, runs p once with its stream fanned out to the
// processor pipeline (when cfg is non-nil) and the instruction-cache sweep
// (when sweep is non-nil), and stores the result under CacheKey.
func measure(p Program, cfg *alphasim.Config, sweep *alphasim.ICacheSweep, opts []MeasureOption) (Result, error) {
	mc := newMeasureConfig(opts)
	key := CacheKey(p, mc.cacheScope, cfg, sweep, mc.profiling)
	// An entry must restore every requested sink; the pipeline check comes
	// first because RestorePoints overwrites the sweep when it succeeds.
	valid := func(e *rescache.Entry) bool {
		return (cfg == nil || e.Pipe != nil) && (sweep == nil || sweep.RestorePoints(e.Sweep))
	}
	if res, ok := mc.lookup(p, key, valid); ok {
		return res, nil
	}
	var sinks []trace.Sink
	var pipe *alphasim.Pipeline
	if cfg != nil {
		pipe = alphasim.New(*cfg)
		sinks = append(sinks, pipe)
	}
	if sweep != nil {
		sinks = append(sinks, sweep)
	}
	res, err := run(p, mc, sinks...)
	if err != nil {
		return res, err
	}
	if pipe != nil {
		st := pipe.Stats()
		res.Pipe = &st
	}
	var points []alphasim.SweepPoint
	if sweep != nil {
		points = sweep.Points()
	}
	mc.store(key, res, points)
	return res, nil
}
