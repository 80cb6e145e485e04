// Package harness drives the paper's experiments: each exported function
// regenerates one table or figure from the measured systems and renders it
// as text.  EXPERIMENTS.md records a captured run against the paper's
// numbers.
//
// Measurements within an experiment are mutually independent, so each
// experiment enumerates its measurements into a batch (sched.go) that fans
// them out over Options.Parallelism workers and collects results in
// submission order, then renders its text from those results — rendered
// text, manifests and profiles are byte-identical to a serial run.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/profile"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload sizes (1 = default; 0 means "default";
	// negative, NaN and infinite values are rejected by Run).
	Scale float64
	// Out receives the rendered table/figure.  nil means os.Stdout, so
	// library callers can leave it unset without nil-dereferencing.
	Out io.Writer

	// Parallelism is the number of measurement jobs run concurrently.
	// 0 means GOMAXPROCS; 1 forces the serial path; negative values are
	// rejected by Run.  The rendered output is byte-identical either way —
	// only wall time and the span layout in Chrome traces differ.
	Parallelism int

	// Telemetry, when non-nil, receives run metrics (counters, histograms):
	// experiments, measures, events, cache hits and scheduler totals.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records the span hierarchy
	// experiment → measure → workload/collect for Chrome trace export.
	Tracer *telemetry.Tracer
	// Manifest, when non-nil, captures each experiment's rendered text and
	// structured measurements for the machine-readable run record.
	Manifest *telemetry.Manifest

	// Profile, when non-nil, collects a per-program attribution profile
	// for every measurement (routine/opcode/phase stacks, plus cache-miss
	// attribution on pipeline runs).  With a Manifest as well, each
	// experiment records its profiles as manifest artifacts.
	Profile *profile.Set

	// Cache, when non-nil, memoizes every measurement on disk: jobs whose
	// key (experiment, scale, program, kind, machine config, profiling
	// mode, lab build fingerprint) matches a stored entry are restored
	// instead of executed, and fresh measurements are stored for the next
	// run.  Rendered output is byte-identical either way; manifests mark
	// restored measurements with cache_hit.
	Cache *rescache.Cache

	// rec is the manifest entry of the experiment currently dispatched by
	// Run; the measure helpers record into it.
	rec *telemetry.RunEntry
	// experiment is the id Run is currently dispatching; it scopes cache
	// keys.
	experiment string
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// out returns the destination writer, defaulting to os.Stdout.
func (o Options) out() io.Writer {
	if o.Out == nil {
		return os.Stdout
	}
	return o.Out
}

// parallelism returns the effective measurement worker count.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Experiments lists the runnable experiment ids, in presentation order.
var Experiments = []string{
	"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "memmodel", "ablation", "opt-matrix",
}

// experimentFns dispatches experiment ids; Known and Run share it, so an
// id is runnable exactly when it is known.
var experimentFns = map[string]func(Options) error{
	"table1":     Table1,
	"table2":     Table2,
	"table3":     Table3,
	"fig1":       Fig1,
	"fig2":       Fig2,
	"fig3":       Fig3,
	"fig4":       Fig4,
	"memmodel":   MemModel,
	"ablation":   Ablation,
	"opt-matrix": OptMatrix,
}

// Known reports whether id names an experiment.
func Known(id string) bool {
	_, ok := experimentFns[id]
	return ok
}

// Run dispatches an experiment by id.
func Run(id string, opt Options) error {
	if opt.Scale < 0 || math.IsNaN(opt.Scale) || math.IsInf(opt.Scale, 0) {
		return fmt.Errorf("harness: scale must be positive and finite (got %g)", opt.Scale)
	}
	if opt.Parallelism < 0 {
		return fmt.Errorf("harness: parallelism must be >= 1 (got %d; 0 means GOMAXPROCS)", opt.Parallelism)
	}
	fn, ok := experimentFns[id]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(Experiments, ", "))
	}
	opt.experiment = id
	span := opt.Tracer.Start("experiment "+id, "id", id, "scale", opt.scale())
	defer span.End()
	start, startCPU := time.Now(), telemetry.ProcessCPU()
	var buf *bytes.Buffer
	if opt.Manifest != nil {
		opt.rec = opt.Manifest.StartRun(id)
		buf = &bytes.Buffer{}
		opt.Out = io.MultiWriter(opt.out(), buf)
	}
	err := fn(opt)
	if opt.rec != nil {
		// DurationUS is recorded even for failed runs, so they are
		// visible in the manifest; Text only reflects a complete run.
		opt.rec.DurationUS = float64(time.Since(start)) / float64(time.Microsecond)
		opt.rec.CPUUS = float64(telemetry.ProcessCPU()-startCPU) / float64(time.Microsecond)
		if err == nil {
			opt.rec.Text = buf.String()
		} else {
			opt.rec.Error = err.Error()
		}
	}
	opt.Telemetry.Counter("harness.experiments").Inc()
	opt.Telemetry.Histogram("harness.experiment_us").Observe(uint64(time.Since(start) / time.Microsecond))
	return err
}

// measureOpts threads the harness's telemetry and measurement cache into
// core measurements.  Every worker updates the one registry: its
// instruments are atomic, and their sums do not depend on the order the
// jobs finish in.
func (o Options) measureOpts() []core.MeasureOption {
	opts := []core.MeasureOption{core.WithTracer(o.Tracer), core.WithTelemetry(o.Telemetry)}
	if o.Profile != nil {
		opts = append(opts, core.WithProfiling())
	}
	if o.Cache != nil {
		opts = append(opts, core.WithCache(o.Cache, rescache.Scope{Experiment: o.experiment, Scale: o.scale()}))
	}
	return opts
}

// record adds one structured measurement to the current experiment's
// manifest entry and profile set.  The batch calls it at collect time, in
// submission order, so records are deterministic regardless of
// parallelism.
func (o Options) record(kind string, res core.Result, dur time.Duration, sweep *alphasim.ICacheSweep) {
	o.Profile.Add(res.Profile)
	if o.rec == nil {
		return
	}
	if res.Profile != nil {
		o.rec.AddProfile(profileArtifact(res.Profile))
	}
	o.rec.Add(NewMeasurement(kind, res, dur, sweep))
}

// NewMeasurement builds the manifest record for one measured result — the
// exact structure the run manifest stores, shared with the measurement
// server so served measurements are byte-identical to a CLI run's manifest
// entries.  sweep, when non-nil, contributes its per-geometry points.
func NewMeasurement(kind string, res core.Result, dur time.Duration, sweep *alphasim.ICacheSweep) telemetry.Measurement {
	stats := res.Stats
	mm := telemetry.Measurement{
		Program:    res.Program.ID(),
		System:     string(res.Program.System),
		Name:       res.Program.Name,
		Variant:    res.Program.Variant,
		SizeBytes:  res.SizeBytes,
		Events:     res.Counter.Total,
		Kind:       kind,
		DurationUS: float64(dur) / float64(time.Microsecond),
		CacheHit:   res.FromCache,
		Stats:      &stats,
		Pipe:       res.Pipe,
	}
	if res.Batch != (trace.BatchStats{}) {
		bs := res.Batch
		mm.Batch = &bs
	}
	if sweep != nil {
		mm.Sweep = sweep.Points()
	}
	return mm
}

// ProfileRecord summarizes one profile as a manifest artifact — the same
// record Options.Profile runs attach to run manifests, exported for the
// measurement server's profile responses.
func ProfileRecord(p *profile.Profile) telemetry.ProfileArtifact { return profileArtifact(p) }

// profileArtifact summarizes one program's profile for the run manifest:
// totals, the fetch/decode-vs-execute split, and the folded-stack text.
func profileArtifact(p *profile.Profile) telemetry.ProfileArtifact {
	pa := telemetry.ProfileArtifact{
		Program:      p.Program,
		Samples:      len(p.Samples),
		Instructions: p.Total(profile.SampleInstructions),
		PhaseTotals:  make(map[string]int64, atom.NumPhases),
	}
	for _, vt := range profile.SampleTypes {
		pa.SampleTypes = append(pa.SampleTypes, vt.Type)
	}
	for ph := atom.Phase(0); int(ph) < atom.NumPhases; ph++ {
		if v := p.FrameTotal(profile.PhaseFrame(ph), profile.SampleInstructions); v != 0 {
			pa.PhaseTotals[ph.String()] = v
		}
	}
	var folded strings.Builder
	if err := p.WriteFolded(&folded, profile.SampleInstructions); err == nil {
		pa.Folded = folded.String()
	}
	return pa
}

// systems is the presentation order.
var systems = []core.System{core.SysMIPSI, core.SysJava, core.SysPerl, core.SysTcl}

// Table1 regenerates the microbenchmark slowdown table.  Slowdowns are
// ratios of simulated machine cycles against the compiled-C run of the
// same operation count.
func Table1(opt Options) error {
	micros := workloads.Micros(opt.scale())
	type t1row struct {
		base *job
		sys  []*job
	}
	b := opt.newBatch()
	rows := make([]t1row, 0, len(micros))
	for _, m := range micros {
		r := t1row{base: b.measurePipeline(m.Progs[core.SysC], alphasim.DefaultConfig())}
		for _, sys := range systems {
			r.sys = append(r.sys, b.measurePipeline(m.Progs[sys], alphasim.DefaultConfig()))
		}
		rows = append(rows, r)
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Table 1: microbenchmark slowdowns relative to C (simulated cycles)\n\n")
	fmt.Fprintf(w, "%-14s %-50s %9s %9s %9s %9s\n", "Benchmark", "Description", "MIPSI", "Java", "Perl", "Tcl")
	for i, m := range micros {
		cCycles := float64(rows[i].base.res.Pipe.Cycles)
		fmt.Fprintf(w, "%-14s %-50s", m.Name, m.Desc)
		for _, j := range rows[i].sys {
			slow := float64(j.res.Pipe.Cycles) / cCycles
			fmt.Fprintf(w, " %9s", fmtSlowdown(slow))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fmtSlowdown(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.0f", s)
	default:
		return fmt.Sprintf("%.1f", s)
	}
}

// Table2 regenerates the baseline performance table: commands, native
// instructions, fetch/decode and execute averages, and simulated cycles.
func Table2(opt Options) error {
	b := opt.newBatch()
	var jobs []*job
	for _, p := range table2Order(opt.scale()) {
		jobs = append(jobs, b.measurePipeline(p, alphasim.DefaultConfig()))
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Table 2: baseline interpreter performance\n\n")
	fmt.Fprintf(w, "%-6s %-10s %8s %10s %14s %10s %8s %8s %12s\n",
		"Lang", "Benchmark", "Size(KB)", "VCmds(K)", "NativeI(K)", "(startup)", "FD/cmd", "Ex/cmd", "Cycles(K)")
	for _, j := range jobs {
		res := j.res
		fd, ex := res.PerCommand()
		startup := ""
		if res.StartupInstructions() > 0 && res.Program.System == core.SysPerl {
			startup = fmt.Sprintf("(%s)", fmtK(res.StartupInstructions()))
		}
		fmt.Fprintf(w, "%-6s %-10s %8.1f %10s %14s %10s %8.0f %8.1f %12s\n",
			res.Program.System, res.Program.Name,
			float64(res.SizeBytes)/1024,
			fmtK(res.Commands()), fmtK(res.NativeInstructions()), startup,
			fd, ex, fmtK(res.Pipe.Cycles))
	}
	return nil
}

// table2Order interleaves C des first, then per-language groups, as the
// paper's table does.
func table2Order(scale float64) []core.Program {
	all := workloads.Suite(scale)
	var out []core.Program
	pick := func(sys core.System) {
		for _, p := range all {
			if p.System == sys {
				out = append(out, p)
			}
		}
	}
	pick(core.SysC)
	pick(core.SysMIPSI)
	pick(core.SysJava)
	pick(core.SysPerl)
	pick(core.SysTcl)
	return out
}

func fmtK(v uint64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%d,%03dK", v/1_000_000, v%1_000_000/1000)
	case v >= 1000:
		return fmt.Sprintf("%dK", v/1000)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// Table3 prints the simulated machine description.  It measures nothing,
// so it renders without a batch.
func Table3(opt Options) error {
	cfg := alphasim.DefaultConfig()
	w := opt.out()
	fmt.Fprintf(w, "Table 3: simulated processor (2-issue, 21064-like)\n\n")
	fmt.Fprintf(w, "%-12s %-10s %s\n", "Cause", "Latency", "Description")
	rows := []struct{ c, l, d string }{
		{"other", "variable", "control hazards, long-latency multiply results"},
		{"short int", fmt.Sprint(cfg.ShortIntDelay + 1), "integer shift and byte instructions"},
		{"load delay", fmt.Sprint(cfg.LoadDelay + 1), "pipeline delay with first-level cache hit"},
		{"mispredict", fmt.Sprint(cfg.Mispredict), "branch misprediction"},
		{"dtlb", fmt.Sprint(cfg.TLBMiss), fmt.Sprintf("miss in the %d-entry data tlb", cfg.DTLBEntries)},
		{"itlb", fmt.Sprint(cfg.TLBMiss), fmt.Sprintf("miss in the %d-entry instruction tlb", cfg.ITLBEntries)},
		{"dmiss", fmt.Sprintf("%d or %d", cfg.L1Miss, cfg.L1Miss+cfg.L2Miss), "miss in L1 data cache / L2"},
		{"imiss", fmt.Sprintf("%d or %d", cfg.L1Miss, cfg.L1Miss+cfg.L2Miss), "miss in L1 instruction cache / L2"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %s\n", r.c, r.l, r.d)
	}
	fmt.Fprintf(w, "\ncaches: %dKB/%dKB direct-mapped L1 I/D, %dKB L2; %d-byte lines; %dKB pages\n",
		cfg.ICache.Size>>10, cfg.DCache.Size>>10, cfg.L2.Size>>10, cfg.ICache.LineSize, cfg.PageSize>>10)
	fmt.Fprintf(w, "branch logic: %d-entry 1-bit BHT, %d-entry return stack, %d-entry BTC\n",
		cfg.BHTEntries, cfg.ReturnStack, cfg.BTCEntries)
	return nil
}

// interpretedSuite returns the Table 2 suite minus the compiled-C rows —
// the programs Fig1, Fig2 and MemModel iterate.
func interpretedSuite(scale float64) []core.Program {
	var out []core.Program
	for _, p := range workloads.Suite(scale) {
		if p.System == core.SysC {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Fig1 regenerates the cumulative execute-instruction distributions: the
// share of execute instructions covered by the top-x virtual commands.
func Fig1(opt Options) error {
	progs := interpretedSuite(opt.scale())
	b := opt.newBatch()
	jobs := make([]*job, len(progs))
	for i, p := range progs {
		jobs[i] = b.measure(p)
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Figure 1: cumulative native instruction count distributions\n")
	fmt.Fprintf(w, "(execute instructions covered by the top-x virtual commands)\n\n")
	fmt.Fprintf(w, "%-18s %6s %6s %6s %6s %6s\n", "Benchmark", "top1", "top2", "top3", "top5", "top10")
	for i, p := range progs {
		res := jobs[i].res
		ops := res.Stats.Ops
		sort.Slice(ops, func(a, b int) bool { return ops[a].Execute > ops[b].Execute })
		var cum [5]float64
		idx := map[int]int{1: 0, 2: 1, 3: 2, 5: 3, 10: 4}
		total := float64(res.Stats.Execute)
		running := 0.0
		for k, op := range ops {
			running += float64(op.Execute)
			if slot, ok := idx[k+1]; ok {
				cum[slot] = 100 * running / total
			}
		}
		// Fill trailing slots when there are fewer commands than the cut.
		last := 0.0
		for k := range cum {
			if cum[k] == 0 {
				cum[k] = max(last, 100*running/total)
			}
			last = cum[k]
		}
		fmt.Fprintf(w, "%-18s %5.0f%% %5.0f%% %5.0f%% %5.0f%% %5.0f%%\n",
			p.ID(), cum[0], cum[1], cum[2], cum[3], cum[4])
	}
	return nil
}

// Fig2 regenerates the per-command histograms: for each benchmark, the
// top virtual commands with their share of commands and of execute
// instructions.
func Fig2(opt Options) error {
	progs := interpretedSuite(opt.scale())
	b := opt.newBatch()
	jobs := make([]*job, len(progs))
	for i, p := range progs {
		jobs[i] = b.measure(p)
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Figure 2: virtual command and execute-instruction distributions\n\n")
	for i, p := range progs {
		res := jobs[i].res
		fmt.Fprintf(w, "%s:\n", p.ID())
		ops := res.Stats.Ops
		if p.System == core.SysJava {
			ops = groupJavaOps(ops)
		}
		sort.Slice(ops, func(a, b int) bool { return ops[a].Execute > ops[b].Execute })
		n := len(ops)
		if n > 6 {
			n = 6
		}
		for _, op := range ops[:n] {
			cmdShare := 100 * float64(op.Count) / float64(res.Stats.Commands)
			exShare := 100 * float64(op.Execute) / float64(res.Stats.Execute)
			fmt.Fprintf(w, "  %-14s %5.1f%% of commands  %5.1f%% of execute  %s\n",
				op.Name, cmdShare, exShare, bar(exShare))
		}
	}
	return nil
}

func bar(pct float64) string {
	n := int(pct / 2.5)
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}

// MemModel regenerates the §3.3 memory-model measurements.
func MemModel(opt Options) error {
	progs := interpretedSuite(opt.scale())
	b := opt.newBatch()
	jobs := make([]*job, len(progs))
	for i, p := range progs {
		jobs[i] = b.measure(p)
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Section 3.3: memory model costs\n\n")
	fmt.Fprintf(w, "%-18s %-12s %10s %12s %8s\n", "Benchmark", "Region", "Accesses", "Instr/access", "%total")
	for i, p := range progs {
		res := jobs[i].res
		total := float64(res.NativeInstructions())
		for _, region := range res.Stats.Regions {
			if region.Accesses == 0 {
				continue
			}
			switch region.Name {
			case "memmodel", "java.stack", "java.field":
				fmt.Fprintf(w, "%-18s %-12s %10d %12.0f %7.1f%%\n",
					p.ID(), region.Name, region.Accesses, region.PerAccess(),
					100*float64(region.Instructions)/total)
			}
		}
	}
	return nil
}

// Fig3 regenerates the issue-slot stall distributions for the interpreted
// suite and the native baselines.
func Fig3(opt Options) error {
	progs := append(workloads.NativeSuite(opt.scale()), workloads.Suite(opt.scale())...)
	b := opt.newBatch()
	jobs := make([]*job, len(progs))
	for i, p := range progs {
		jobs[i] = b.measurePipeline(p, alphasim.DefaultConfig())
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Figure 3: overall execution behavior (%% of issue slots)\n\n")
	fmt.Fprintf(w, "%-18s %5s %6s %6s %6s %6s %6s %6s %6s %6s\n",
		"Benchmark", "busy", "other", "shint", "load", "mispr", "dtlb", "itlb", "dmiss", "imiss")
	for i, p := range progs {
		fig3Row(w, p, jobs[i].res)
	}
	return nil
}

func fig3Row(w io.Writer, p core.Program, res core.Result) {
	st := res.Pipe
	width := 2
	fmt.Fprintf(w, "%-18s %4.0f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
		p.ID(),
		100*st.BusyFrac(width),
		100*st.OtherFrac(width),
		100*st.StallFrac(alphasim.CauseShortInt, width),
		100*st.StallFrac(alphasim.CauseLoadDelay, width),
		100*st.StallFrac(alphasim.CauseMispredict, width),
		100*st.StallFrac(alphasim.CauseDTLB, width),
		100*st.StallFrac(alphasim.CauseITLB, width),
		100*st.StallFrac(alphasim.CauseDMiss, width),
		100*st.StallFrac(alphasim.CauseIMiss, width))
}

// Fig4 regenerates the instruction-cache sweeps: miss rate per 100
// instructions across sizes and associativities for the Java, Perl and
// Tcl suites (plus MIPSI des for contrast).  Like the paper's figure it is
// trace-driven: each program runs once, as one job, and its instruction
// stream feeds every geometry of an alphasim.ICacheSweep.
func Fig4(opt Options) error {
	var progs []core.Program
	for _, p := range workloads.Suite(opt.scale()) {
		switch p.System {
		case core.SysC:
			continue
		case core.SysMIPSI:
			if p.Name != "des" {
				continue
			}
		}
		progs = append(progs, p)
	}
	b := opt.newBatch()
	sweeps := make([]*alphasim.ICacheSweep, len(progs))
	for i, p := range progs {
		// Each job gets a private sweep; jobs run concurrently.
		sweeps[i] = alphasim.DefaultICacheSweep()
		b.measureSweep(p, sweeps[i])
	}
	if err := b.run(); err != nil {
		return err
	}
	w := opt.out()
	fmt.Fprintf(w, "Figure 4: instruction cache behavior (misses per 100 instructions)\n\n")
	fmt.Fprintf(w, "%-18s", "Benchmark")
	for _, pt := range alphasim.DefaultICacheSweep().Points() {
		fmt.Fprintf(w, " %9s", pt.Label())
	}
	fmt.Fprintln(w)
	for i, p := range progs {
		fmt.Fprintf(w, "%-18s", p.ID())
		for _, pt := range sweeps[i].Points() {
			fmt.Fprintf(w, " %9.2f", pt.MissPer100())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// groupJavaOps folds raw bytecodes into the primary categories Figure 2
// uses for Java (st_load, st_store, alu, branch, call, field, native).
func groupJavaOps(ops []atom.OpStats) []atom.OpStats {
	cat := func(name string) string {
		switch {
		case name == "iload" || name == "iconst" || name == "ldc":
			return "st_load"
		case name == "istore" || name == "iinc":
			return "st_store"
		case name == "invokenative":
			return "native"
		case strings.HasPrefix(name, "get") || strings.HasPrefix(name, "put"):
			return "field"
		case strings.HasPrefix(name, "if") || name == "goto":
			return "branch"
		case name == "invokestatic" || name == "return" || name == "ireturn":
			return "call"
		case strings.Contains(name, "array") || strings.Contains(name, "aload") ||
			strings.Contains(name, "astore") || name == "new":
			return "array"
		}
		return "alu"
	}
	grouped := make(map[string]*atom.OpStats)
	var order []string
	for _, op := range ops {
		c := cat(op.Name)
		g, ok := grouped[c]
		if !ok {
			g = &atom.OpStats{Name: c}
			grouped[c] = g
			order = append(order, c)
		}
		g.Count += op.Count
		g.FetchDecode += op.FetchDecode
		g.Execute += op.Execute
	}
	out := make([]atom.OpStats, 0, len(order))
	for _, c := range order {
		out = append(out, *grouped[c])
	}
	return out
}
