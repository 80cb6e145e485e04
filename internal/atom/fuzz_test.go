package atom

import (
	"reflect"
	"testing"

	"interplab/internal/trace"
)

// tallyScript decodes fuzz input into a probe workout.  The first byte
// picks how many routines the image holds (1–4), and three bytes per
// routine give its size, branch spacing and short-int spacing.  The rest
// is a sequence of (call, argument) byte pairs over the probe's reporting
// API.  The fuzz targets stream odd-length inputs under RequireAttrSync.
type tallyScript struct {
	shapes [][3]byte
	calls  [][2]byte
}

func decodeTallyScript(data []byte) tallyScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var s tallyScript
	for n := int(next())%4 + 1; n > 0; n-- {
		s.shapes = append(s.shapes, [3]byte{next(), next(), next()})
	}
	for len(data) > 0 {
		s.calls = append(s.calls, [2]byte{next(), next()})
	}
	return s
}

// run replays the script on a fresh probe over sink.
func (s tallyScript) run(sink trace.Sink, attrSync bool) *Probe {
	p, _ := s.replay(sink, attrSync, (*Probe).Exec, 1)
	return p
}

// replay is run with exec standing in for Probe.Exec and every Exec
// argument multiplied by scale; it also returns the image's routines.
func (s tallyScript) replay(sink trace.Sink, attrSync bool, exec func(*Probe, *Routine, int), scale int) (*Probe, []*Routine) {
	img := NewImage()
	var rs []*Routine
	for _, sh := range s.shapes {
		rs = append(rs, img.Routine("r", int(sh[0])%64+1,
			WithBranchEvery(int(sh[1])%64+1), WithShortEvery(int(sh[2])%32+1)))
	}
	p := NewProbe(img, sink)
	if attrSync {
		p.RequireAttrSync()
	}
	ops := []OpID{p.OpName("a"), p.OpName("b"), p.OpName("c")}
	for _, c := range s.calls {
		arg := int(c[1])
		r := rs[arg%len(rs)]
		switch c[0] % 10 {
		case 0:
			exec(p, r, arg*scale)
		case 1:
			p.ExecMul(r, arg%8)
		case 2:
			p.Load(DataBase + uint32(arg)*4)
		case 3:
			p.Store(DataBase + uint32(arg)*4)
		case 4:
			p.Call(r)
		case 5:
			p.Ret()
		case 6:
			p.BeginCommand(ops[arg%len(ops)])
		case 7:
			p.BeginExecute()
		case 8:
			p.EndCommand()
		case 9:
			p.SetStartup(arg&1 != 0)
		}
	}
	p.FlushEvents()
	return p, rs
}

// FuzzProbeTally walls counting at emit against per-event recounting: the
// same decoded workout runs on a probe that only counts and on an
// identical probe streaming into a sink that unrolls each block it
// receives and recounts it event by event.  Their tallies and Stats must
// match, and both tallies must equal the recount.
func FuzzProbeTally(f *testing.F) {
	f.Add([]byte{0, 40, 7, 15, 0, 100, 2, 9, 3, 9, 0, 255})
	f.Add([]byte{2, 1, 0, 0, 5, 5, 3, 6, 0, 0, 17, 7, 0, 0, 33, 4, 1, 0, 9, 5, 0, 8, 0})
	f.Add([]byte{3, 64, 8, 16, 12, 3, 2, 31, 31, 31, 9, 1, 0, 200, 1, 7, 9, 0, 4, 2, 0, 60, 5, 0, 5, 0})
	f.Add([]byte{1, 0, 255, 255, 6, 1, 0, 250, 7, 0, 0, 250, 2, 1, 3, 2, 8, 0, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeTallyScript(data)
		tallied := s.run(trace.Discard, false)
		var sink recountSink
		streamed := s.run(&sink, len(data)%2 == 1)
		recount := sink.Counter
		if got, want := *tallied.Tally(), *streamed.Tally(); got != want {
			t.Fatalf("tally-only %+v != streamed %+v", got, want)
		}
		if got := *streamed.Tally(); got != recount {
			t.Fatalf("tally %+v != per-event recount %+v", got, recount)
		}
		if b := tallied.BatchStats(); b != (trace.BatchStats{}) {
			t.Fatalf("tally-only probe delivered blocks: %+v", b)
		}
		if b := streamed.BatchStats(); b.Events != recount.Total {
			t.Fatalf("streamed blocks carried %d events, recount %d", b.Events, recount.Total)
		}
		if got, want := tallied.Stats(), streamed.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Stats differ:\n%+v\n%+v", got, want)
		}
	})
}

// blockLog records a stream's events, stretch rows expanded, and for each
// block that delivered them the instruction offset it ends at and its
// flush reason.
type blockLog struct {
	trace.Recorder
	cuts [][2]int
}

func (l *blockLog) EmitBlock(b *trace.Block) {
	l.Recorder.EmitBlock(b)
	l.cuts = append(l.cuts, [2]int{len(l.Events), int(b.Reason)})
}

// stateCuts returns the cuts of the attr and final flushes: where an
// attribution change or the stream's end cut it, which does not depend on
// how many instructions a row carries.
func (l *blockLog) stateCuts() [][2]int {
	var cuts [][2]int
	for _, c := range l.cuts {
		if trace.FlushReason(c[1]) != trace.FlushFill {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// FuzzExecStream walls the branch-to-branch walk and its stretch rows
// against the walk it replaced: the same decoded workout streams on one
// probe calling Exec and on another calling refExec, which emits one row
// per instruction, in passes whose Exec lengths grow until they cross
// BlockCap.  Event for event (dependence flags included), in the
// instruction offset of every attr and final cut, and in every tally,
// book and walk state, the two must agree.  Only the fill cuts, and so
// the block count, differ: a stretch row carries several instructions.
func FuzzExecStream(f *testing.F) {
	f.Add([]byte{0, 0, 7, 15, 0, 100, 0, 1, 0, 0})                 // Size 1, n = 0
	f.Add([]byte{0, 40, 0, 3, 0, 200, 1, 5, 0, 77, 2, 9, 0, 31})   // branchEvery 1
	f.Add([]byte{0, 40, 7, 0, 0, 255, 2, 3, 0, 9, 1, 2, 0, 130})   // shortEvery 1
	f.Add([]byte{0, 63, 3, 20, 0, 250, 1, 4, 0, 250, 0, 0, 0, 17}) // shortEvery > branchEvery
	f.Add([]byte{0, 63, 63, 4, 0, 250, 2, 3, 0, 100, 1, 1, 0, 61}) // steps longer than a stretch row
	f.Add([]byte{3, 0, 0, 0, 63, 7, 4, 20, 15, 31, 5, 1, 1, 0, 100, 1, 7, 4, 2, 0, 50, 2, 3,
		5, 0, 0, 201, 9, 1, 0, 0, 6, 1, 0, 33, 7, 0, 0, 44, 8, 0, 3, 5, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeTallyScript(data)
		attrSync := len(data)%2 == 1
		for _, scale := range []int{1, 9, 67} {
			if scale > 1 && len(s.calls) > 48 {
				// Long passes replay a prefix, so an input stays a few
				// hundred thousand events.
				s.calls = s.calls[:48]
			}
			var got, want blockLog
			p, prs := s.replay(&got, attrSync, (*Probe).Exec, scale)
			q, qrs := s.replay(&want, attrSync, refExec, scale)
			if len(got.Events) != len(want.Events) {
				t.Fatalf("scale %d: %d events, reference %d", scale, len(got.Events), len(want.Events))
			}
			for i := range got.Events {
				if got.Events[i] != want.Events[i] {
					t.Fatalf("scale %d: event %d = %+v, reference %+v", scale, i, got.Events[i], want.Events[i])
				}
			}
			if a, b := got.stateCuts(), want.stateCuts(); !reflect.DeepEqual(a, b) {
				t.Fatalf("scale %d: attr and final cuts %v, reference %v", scale, a, b)
			}
			if a, b := p.BatchStats(), q.BatchStats(); a.Events != b.Events ||
				a.FlushAttr != b.FlushAttr || a.FlushFinal != b.FlushFinal {
				t.Fatalf("scale %d: batch stats %+v, reference %+v", scale, a, b)
			}
			if a, b := *p.Tally(), *q.Tally(); a != b {
				t.Fatalf("scale %d: tally %+v, reference %+v", scale, a, b)
			}
			if a, b := p.Stats(), q.Stats(); !reflect.DeepEqual(a, b) {
				t.Fatalf("scale %d: Stats differ:\n%+v\n%+v", scale, a, b)
			}
			if p.depRng != q.depRng || p.lastDep != q.lastDep {
				t.Fatalf("scale %d: dependence state (%#x, %v), reference (%#x, %v)",
					scale, p.depRng, p.lastDep, q.depRng, q.lastDep)
			}
			for i, r := range prs {
				w := qrs[i]
				if r.cursor != w.cursor || r.sinceBr != w.sinceBr || r.sinceSh != w.sinceSh || r.rng != w.rng {
					t.Fatalf("scale %d: routine %d walk state (%d, %d, %d, %#x), reference (%d, %d, %d, %#x)",
						scale, i, r.cursor, r.sinceBr, r.sinceSh, r.rng, w.cursor, w.sinceBr, w.sinceSh, w.rng)
				}
			}
		}
	})
}
