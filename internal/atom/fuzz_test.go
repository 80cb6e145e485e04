package atom

import (
	"reflect"
	"testing"

	"interplab/internal/trace"
)

// tallyScript decodes fuzz input into a probe workout.  The first byte
// sets the tally's sampling interval (1–64 events); the next picks how
// many routines the image holds (1–4), and three bytes per routine give
// its size, branch spacing and short-int spacing.  The rest is a sequence
// of (call, argument) byte pairs over the probe's reporting API.
type tallyScript struct {
	shapes [][3]byte
	calls  [][2]byte
	every  uint64
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
	s.every = uint64(next())%64 + 1
	for n := int(next())%4 + 1; n > 0; n-- {
		s.shapes = append(s.shapes, [3]byte{next(), next(), next()})
	}
	for len(data) > 0 {
		s.calls = append(s.calls, [2]byte{next(), next()})
	}
	return s
}

// run replays the script on a fresh probe over sink and returns the probe
// with the totals at which its tally's sampling hook fired.
func (s tallyScript) run(sink trace.Sink, attrSync bool) (*Probe, []uint64) {
	img := NewImage()
	var rs []*Routine
	for _, sh := range s.shapes {
		rs = append(rs, img.Routine("r", int(sh[0])%64+1,
			WithBranchEvery(int(sh[1])%16+1), WithShortEvery(int(sh[2])%32+1)))
	}
	p := NewProbe(img, sink)
	if attrSync {
		p.RequireAttrSync()
	}
	var samples []uint64
	p.Tally().SampleEvery(s.every, func() { samples = append(samples, p.Tally().Total) })
	ops := []OpID{p.OpName("a"), p.OpName("b"), p.OpName("c")}
	for _, c := range s.calls {
		arg := int(c[1])
		r := rs[arg%len(rs)]
		switch c[0] % 10 {
		case 0:
			p.Exec(r, arg)
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
	return p, samples
}

// FuzzProbeTally walls counting at emit against per-event recounting: the
// same decoded workout runs on a probe that only counts and on an
// identical probe streaming into a sink that recounts every event (and,
// not implementing trace.BlockSink, receives each block unrolled).  Their
// tallies, Stats and sample points must match, and both tallies must equal
// the recount.
func FuzzProbeTally(f *testing.F) {
	f.Add([]byte{8, 0, 40, 7, 15, 0, 100, 2, 9, 3, 9, 0, 255})
	f.Add([]byte{1, 2, 1, 0, 0, 5, 5, 3, 6, 0, 0, 17, 7, 0, 0, 33, 4, 1, 0, 9, 5, 0, 8, 0})
	f.Add([]byte{63, 3, 64, 8, 16, 12, 3, 2, 31, 31, 31, 9, 1, 0, 200, 1, 7, 9, 0, 4, 2, 0, 60, 5, 0, 5, 0})
	f.Add([]byte{32, 1, 0, 255, 255, 6, 1, 0, 250, 7, 0, 0, 250, 2, 1, 3, 2, 8, 0, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeTallyScript(data)
		tallied, tSamples := s.run(trace.Discard, false)
		var recount trace.Counter
		streamed, sSamples := s.run(trace.SinkFunc(recount.Emit), len(data)%2 == 0)
		if got, want := tallied.Tally().Counter, streamed.Tally().Counter; got != want {
			t.Fatalf("tally-only %+v != streamed %+v", got, want)
		}
		if got := streamed.Tally().Counter; got != recount {
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
		if !reflect.DeepEqual(tSamples, sSamples) {
			t.Fatalf("sample points differ: %v vs %v", tSamples, sSamples)
		}
	})
}
