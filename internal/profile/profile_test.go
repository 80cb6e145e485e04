package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"interplab/internal/alphasim"
	"interplab/internal/atom"
	"interplab/internal/core"
	"interplab/internal/profile"
	"interplab/internal/trace"
	"interplab/internal/workloads"
)

// desSuite returns the shared DES workload under each of the four
// interpreters — the paper's common reference point.
func desSuite() []core.Program {
	return []core.Program{
		workloads.DESMIPSI(4),
		workloads.DESJava(4),
		workloads.DESPerl(4),
		workloads.DESTcl(4),
	}
}

// TestProfileAgreesWithStats is the acceptance gate: for every interpreter,
// the profile's fetch/decode-vs-execute split must equal atom.Stats' phase
// totals for the same run, event totals must match the stream counter, and
// cache-miss attribution must account for every simulated L1 miss.
func TestProfileAgreesWithStats(t *testing.T) {
	for _, p := range desSuite() {
		p := p
		t.Run(p.ID(), func(t *testing.T) {
			res, err := core.MeasureWithPipeline(p, alphasim.DefaultConfig(), core.WithProfiling())
			if err != nil {
				t.Fatal(err)
			}
			prof := res.Profile
			if prof == nil || len(prof.Samples) == 0 {
				t.Fatal("no profile collected")
			}
			if got, want := prof.Total(profile.SampleInstructions), int64(res.Counter.Total); got != want {
				t.Errorf("instruction total %d != stream total %d", got, want)
			}
			phases := map[atom.Phase]uint64{
				atom.PhaseFetchDecode: res.Stats.FetchDecode,
				atom.PhaseExecute:     res.Stats.Execute,
				atom.PhaseStartup:     res.Stats.Startup,
			}
			for ph, want := range phases {
				got := prof.FrameTotal(profile.PhaseFrame(ph), profile.SampleInstructions)
				if got != int64(want) {
					t.Errorf("phase %s: profile %d != stats %d", ph, got, want)
				}
			}
			if got, want := prof.Total(profile.SampleLoads), int64(res.Stats.Loads); got != want {
				t.Errorf("loads %d != stats %d", got, want)
			}
			if got, want := prof.Total(profile.SampleStores), int64(res.Stats.Stores); got != want {
				t.Errorf("stores %d != stats %d", got, want)
			}
			if got, want := prof.Total(profile.SampleBranches), int64(res.Counter.Branches()); got != want {
				t.Errorf("branches %d != counter %d", got, want)
			}
			if got, want := prof.Total(profile.SampleIMiss), int64(res.Pipe.IMisses1); got != want {
				t.Errorf("imiss %d != pipeline %d", got, want)
			}
			if got, want := prof.Total(profile.SampleDMiss), int64(res.Pipe.DMisses1); got != want {
				t.Errorf("dmiss %d != pipeline %d", got, want)
			}
			// Per-routine attribution exists: some sample reaches past the
			// op and phase frames into a named interpreter routine.
			deep := 0
			for _, s := range prof.Samples {
				if len(s.Stack) > 2 {
					deep++
				}
			}
			if deep == 0 {
				t.Error("no routine-level samples (stacks never exceed op/phase frames)")
			}
			// Per-opcode attribution exists.
			hasOp := false
			for _, s := range prof.Samples {
				if strings.HasPrefix(s.Stack[0], profile.OpPrefix) {
					hasOp = true
					break
				}
			}
			if !hasOp {
				t.Error("no op-rooted samples")
			}
		})
	}
}

// TestPprofRoundTrip pins the hand-rolled encoder against the hand-rolled
// decoder: gunzip + parse must reproduce every sample exactly.
func TestPprofRoundTrip(t *testing.T) {
	res, err := core.MeasureWithPipeline(workloads.DESTcl(3), alphasim.DefaultConfig(), core.WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile
	var buf bytes.Buffer
	if err := prof.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := profile.ParsePprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if len(parsed.SampleTypes) != profile.NumSampleTypes {
		t.Fatalf("got %d sample types, want %d", len(parsed.SampleTypes), profile.NumSampleTypes)
	}
	for i, vt := range profile.SampleTypes {
		if parsed.SampleTypes[i] != vt {
			t.Errorf("sample type %d: %v != %v", i, parsed.SampleTypes[i], vt)
		}
	}
	if parsed.DefaultSampleType != "instructions" {
		t.Errorf("default sample type %q, want instructions", parsed.DefaultSampleType)
	}
	if len(parsed.Samples) != len(prof.Samples) {
		t.Fatalf("got %d samples, want %d", len(parsed.Samples), len(prof.Samples))
	}
	for i := range prof.Samples {
		want, got := prof.Samples[i], parsed.Samples[i]
		if len(want.Stack) != len(got.Stack) {
			t.Fatalf("sample %d: stack depth %d != %d", i, len(got.Stack), len(want.Stack))
		}
		for k := range want.Stack {
			if want.Stack[k] != got.Stack[k] {
				t.Errorf("sample %d frame %d: %q != %q", i, k, got.Stack[k], want.Stack[k])
			}
		}
		if want.Values != got.Values {
			t.Errorf("sample %d values: %v != %v", i, got.Values, want.Values)
		}
	}
}

// TestCollectorStacks drives a probe by hand and checks the exact frames
// the collector records.
func TestCollectorStacks(t *testing.T) {
	img := atom.NewImage()
	dispatch := img.Routine("interp.dispatch", 32)
	work := img.Routine("interp.add", 16)
	helper := img.Routine("interp.helper", 8)

	col := profile.NewCollector()
	probe := atom.NewProbe(img, trace.Discard)
	col.Bind(probe)

	set := probe.OpName("add")
	probe.BeginCommand(set)
	probe.Exec(dispatch, 5) // fetch/decode in the dispatch routine
	probe.BeginExecute()
	probe.Exec(work, 7)
	probe.Call(helper) // jump + 2 frame stores
	probe.Exec(helper, 3)
	probe.Ret() // 2 loads + return
	probe.EndCommand()
	probe.Exec(dispatch, 2) // between commands: dispatch loop
	probe.FlushEvents()

	prof := col.Profile("test/hand")
	find := func(stack ...string) *profile.Sample {
		for i := range prof.Samples {
			s := &prof.Samples[i]
			if len(s.Stack) != len(stack) {
				continue
			}
			ok := true
			for k := range stack {
				if s.Stack[k] != stack[k] {
					ok = false
				}
			}
			if ok {
				return s
			}
		}
		return nil
	}

	fd := find("op:add", "phase:fetch_decode", "interp.dispatch")
	if fd == nil || fd.Values[profile.SampleInstructions] != 5 {
		t.Errorf("fetch/decode sample wrong: %+v", fd)
	}
	ex := find("op:add", "phase:execute", "interp.add")
	// 7 Exec + Call jump accounted in caller... the jump emits before the
	// frame push, so it lands here; Ret's return event lands in the callee.
	if ex == nil || ex.Values[profile.SampleInstructions] < 7 {
		t.Errorf("execute sample wrong: %+v", ex)
	}
	nested := find("op:add", "phase:execute", "interp.add", "interp.helper")
	if nested == nil || nested.Values[profile.SampleInstructions] < 3 {
		t.Errorf("nested call sample wrong: %+v", nested)
	}
	loop := find("dispatch", "phase:fetch_decode", "interp.dispatch")
	if loop == nil || loop.Values[profile.SampleInstructions] != 2 {
		t.Errorf("dispatch-loop sample wrong: %+v", loop)
	}
	if got, want := prof.Total(profile.SampleInstructions), int64(probe.Total()); got != want {
		t.Errorf("profile total %d != probe total %d", got, want)
	}
}

// TestWriteTopAndFolded sanity-checks the text renderings.
func TestWriteTopAndFolded(t *testing.T) {
	res, err := core.Measure(workloads.DESPerl(3), core.WithProfiling())
	if err != nil {
		t.Fatal(err)
	}
	var top bytes.Buffer
	if err := res.Profile.WriteTop(&top, 10, profile.SampleInstructions); err != nil {
		t.Fatal(err)
	}
	out := top.String()
	if !strings.Contains(out, "flat") || !strings.Contains(out, "perl.") {
		t.Errorf("top table missing expected content:\n%s", out)
	}
	var split bytes.Buffer
	if err := res.Profile.WritePhaseSplit(&split); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(split.String(), "op:") || !strings.Contains(split.String(), "dispatch") {
		t.Errorf("phase split missing op/dispatch rows:\n%s", split.String())
	}
	var folded bytes.Buffer
	if err := res.Profile.WriteFolded(&folded, profile.SampleInstructions); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(folded.String(), "\n"), "\n") {
		if line == "" || !strings.Contains(line, " ") || !strings.Contains(line, ";") {
			t.Fatalf("malformed folded line %q", line)
		}
	}
}

// TestSetMerged pins the merged-profile shape: program ids become root
// frames and totals are preserved.
func TestSetMerged(t *testing.T) {
	set := profile.NewSet()
	var want int64
	for _, p := range []core.Program{workloads.DESTcl(2), workloads.DESPerl(2)} {
		res, err := core.Measure(p, core.WithProfiling())
		if err != nil {
			t.Fatal(err)
		}
		set.Add(res.Profile)
		want += res.Profile.Total(profile.SampleInstructions)
	}
	m := set.Merged()
	if got := m.Total(profile.SampleInstructions); got != want {
		t.Errorf("merged total %d != %d", got, want)
	}
	if got := m.FrameTotal("Tcl/des", profile.SampleInstructions); got == 0 {
		t.Error("merged profile lost the Tcl/des root frame")
	}
	var _ alphasim.MissObserver = profile.NewCollector()
}

// driveScenario pushes a fixed attribution-rich stream through a bound
// probe: startup work, many small command cycles across several opcodes
// and handler routines, nested calls, memory traffic, and one segment
// long enough to span a block-fill boundary.
func driveScenario(probe *atom.Probe, img *atom.Image) {
	dispatch := img.Routine("interp.dispatch", 48)
	handlers := []*atom.Routine{
		img.Routine("interp.add", 16),
		img.Routine("interp.load", 24),
		img.Routine("interp.call", 32),
	}
	helper := img.Routine("interp.helper", 8)
	ops := []atom.OpID{probe.OpName("add"), probe.OpName("load"), probe.OpName("call")}

	probe.SetStartup(true)
	probe.Exec(dispatch, 50)
	probe.SetStartup(false)

	for i := 0; i < 400; i++ {
		op := i % len(ops)
		probe.BeginCommand(ops[op])
		probe.Exec(dispatch, 3+op)
		probe.BeginExecute()
		h := handlers[op]
		probe.Exec(h, 5+i%7)
		switch op {
		case 1:
			probe.Load(0x1000 + uint32(i)*8)
			probe.Store(0x2000 + uint32(i)*8)
		case 2:
			probe.Call(helper)
			probe.Exec(helper, 4)
			probe.Ret()
		}
		probe.EndCommand()
		probe.Exec(dispatch, 2)
	}

	// One attribution segment larger than a block: the fill flush lands
	// mid-segment and the tail must still be attributed to the same node.
	probe.BeginCommand(ops[0])
	probe.BeginExecute()
	probe.Exec(handlers[0], trace.BlockCap+500)
	probe.EndCommand()
	probe.FlushEvents()
}

// foldAll renders every stream-derived sample type of prof as folded
// stacks, followed by its pprof encoding.
func foldAll(t *testing.T, prof *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, typ := range []int{
		profile.SampleInstructions, profile.SampleLoads,
		profile.SampleStores, profile.SampleBranches,
	} {
		if err := prof.WriteFolded(&buf, typ); err != nil {
			t.Fatal(err)
		}
	}
	if err := prof.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refSink unrolls each block it receives into the per-event oracle.
type refSink struct{ ref *profile.RefCollector }

func (s *refSink) EmitBlock(b *trace.Block) {
	for _, e := range b.AppendEvents(nil) {
		s.ref.Emit(e)
	}
}

// TestCollectorSegmentedMatchesPerEvent pins the collector's segment
// charging to per-event attribution: the same scripted stream, charged
// from the probe's tally at each attribution change by a collector on a
// probe that builds no events, must fold into byte-identical profiles as
// the per-event oracle rebuilds from a streaming probe.
func TestCollectorSegmentedMatchesPerEvent(t *testing.T) {
	img := atom.NewImage()
	col := profile.NewCollector()
	probe := atom.NewProbe(img, trace.Discard)
	col.Bind(probe)
	driveScenario(probe, img)
	charged := col.Profile("test/seg")

	refImg := atom.NewImage()
	sink := &refSink{}
	refProbe := atom.NewProbe(refImg, sink)
	ref := profile.NewRefCollector(refProbe)
	sink.ref = ref
	refProbe.RequireAttrSync()
	driveScenario(refProbe, refImg)
	refProbe.FlushEvents()
	rebuilt := ref.Profile("test/seg")

	if got, want := foldAll(t, charged), foldAll(t, rebuilt); !bytes.Equal(got, want) {
		t.Errorf("charged profile differs from per-event profile:\n-- charged --\n%s\n-- per-event --\n%s", got, want)
	}
	if b := probe.BatchStats(); b.Blocks != 0 {
		t.Errorf("the charged run delivered %d blocks, want none", b.Blocks)
	}
	var folded bytes.Buffer
	if err := charged.WriteFolded(&folded, profile.SampleInstructions); err != nil {
		t.Fatal(err)
	}
	if s := folded.String(); !strings.Contains(s, "interp.helper") || !strings.Contains(s, "op:load") {
		t.Fatalf("scenario profile missing expected frames:\n%s", s)
	}
}
