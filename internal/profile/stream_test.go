package profile_test

import (
	"bytes"
	"reflect"
	"testing"

	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/profile"
	"interplab/internal/telemetry"
	"interplab/internal/trace"
	"interplab/internal/vfs"
	"interplab/internal/workloads"
)

// streamScale is the workload scale of the stream-identity wall: the
// harness determinism tests' scale.
var streamScale = 0.1

// streamPrograms is every program of the Table 2 suite plus every
// optimization-tier cell of des.
func streamPrograms() []core.Program {
	progs := workloads.Suite(streamScale)
	for _, sys := range []core.System{core.SysMIPSI, core.SysJava, core.SysPerl, core.SysTcl} {
		for _, tier := range workloads.Tiers(sys) {
			progs = append(progs, workloads.DESTiered(sys, streamScale, tier))
		}
	}
	return progs
}

// rebuild is one run's stream counted and attributed event by event.
type rebuild struct {
	counter trace.Counter // recounted from the delivered events
	ref     *profile.RefCollector

	tally   trace.Counter    // the producers' own tallies
	stats   atom.Stats       // the probe's books
	profile *profile.Profile // the tally-charging collector's profile
	batch   trace.BatchStats // the probe's delivered blocks
}

// perEventSink unrolls each block it receives and recounts and
// re-attributes its events one by one.
type perEventSink struct{ r *rebuild }

func (s perEventSink) EmitBlock(b *trace.Block) {
	for _, e := range b.AppendEvents(nil) {
		s.r.counter.Emit(e)
		s.r.ref.Emit(e)
	}
}

// streamRun runs p the way core.run does, but with the per-event sink as
// its only sink, so the probe streams every event, and with blocks flushed
// at every attribution change, so each event reaches the oracle while the
// probe is still in the state it was emitted under.  The run carries a
// tally-charging collector of its own, fed by the same execution.
func streamRun(t *testing.T, p core.Program) *rebuild {
	t.Helper()
	r := &rebuild{}
	sink := perEventSink{r}
	img := atom.NewImage()
	probe := atom.NewProbe(img, sink)
	r.ref = profile.NewRefCollector(probe)
	probe.RequireAttrSync()
	osys := vfs.New()
	if p.System != core.SysC {
		osys.Instrument(img, probe)
	}
	ctx := &core.Ctx{Image: img, Probe: probe, Sink: sink, OS: osys}
	col := profile.NewCollector()
	col.Bind(probe, ctx.NativeTally())
	if err := p.Run(ctx); err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	probe.FlushEvents()
	r.tally = ctx.Counter()
	r.stats = probe.Stats()
	r.profile = col.Profile(p.ID())
	r.batch = probe.BatchStats()
	return r
}

// TestTallyMatchesPerEventRebuild is the stream-identity wall of counting
// at emit.  For every suite program and every des tier cell, one streamed
// run's tallies must equal its events recounted one by one, and its
// tally-charged profile the profile the per-event oracle rebuilds from
// the same events.  Then core.Measure — plain, observed and profiled, none
// of which builds an event block — must report that same Counter and
// Stats, and the profiled measurement that same profile, to the byte.
func TestTallyMatchesPerEventRebuild(t *testing.T) {
	for _, p := range streamPrograms() {
		p := p
		name := p.ID()
		if p.Variant != "" {
			name += "/" + p.Variant
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := streamRun(t, p)
			if r.tally != r.counter {
				t.Errorf("tally %+v != recounted stream %+v", r.tally, r.counter)
			}
			if p.System != core.SysC {
				// Compiled C streams through its own batcher, not the
				// probe's; the recount above covers its events.
				if r.batch.Events != r.counter.Total {
					t.Errorf("blocks carried %d events, the tally counted %d", r.batch.Events, r.counter.Total)
				}
				if s := r.stats; s.Instructions != r.counter.Total ||
					s.Loads != r.counter.Loads() || s.Stores != r.counter.Stores() {
					t.Errorf("probe books %d/%d/%d instructions/loads/stores, stream %d/%d/%d",
						s.Instructions, s.Loads, s.Stores, r.counter.Total, r.counter.Loads(), r.counter.Stores())
				}
			}
			rebuilt := foldAll(t, r.ref.Profile(p.ID()))
			if got := foldAll(t, r.profile); !bytes.Equal(got, rebuilt) {
				t.Errorf("tally-charged profile differs from the per-event rebuild:\n-- charged --\n%s\n-- per-event --\n%s", got, rebuilt)
			}

			for _, arm := range []struct {
				name string
				opts []core.MeasureOption
			}{
				{"plain", nil},
				{"observed", []core.MeasureOption{core.WithTelemetry(telemetry.NewRegistry())}},
				{"profiled", []core.MeasureOption{core.WithProfiling()}},
			} {
				res, err := core.Measure(p, arm.opts...)
				if err != nil {
					t.Fatalf("%s: %v", arm.name, err)
				}
				if res.Batch != (trace.BatchStats{}) {
					t.Errorf("%s: measure-only run delivered blocks: %+v", arm.name, res.Batch)
				}
				if res.Counter != r.counter {
					t.Errorf("%s: Counter %+v != streamed %+v", arm.name, res.Counter, r.counter)
				}
				if !reflect.DeepEqual(res.Stats, r.stats) {
					t.Errorf("%s: Stats differ from the streamed run's:\n%+v\n%+v", arm.name, res.Stats, r.stats)
				}
				if res.Profile != nil && !bytes.Equal(foldAll(t, res.Profile), rebuilt) {
					t.Errorf("%s: profile differs from the per-event rebuild", arm.name)
				}
			}
		})
	}
}
