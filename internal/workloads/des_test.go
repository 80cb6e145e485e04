package workloads

import (
	"strconv"
	"strings"
	"testing"

	"interplab/internal/core"
	"interplab/internal/minicc"
)

// knobSet is one (system, knobs) pair an experiment measures des under.
type knobSet struct {
	sys core.System
	k   Knobs
}

// experimentKnobs is every knob set the ablation and opt-matrix
// experiments run an interpreter under: MIPSI's and Java's defaults
// (ablation's switch-dispatch arms), ablation's flat-memory,
// threaded-dispatch and cached-parse arms, and each opt-matrix tier,
// whose baseline is Perl's and Tcl's default.
func experimentKnobs() []knobSet {
	sets := []knobSet{
		{core.SysMIPSI, Knobs{}},
		{core.SysJava, Knobs{}},
		{core.SysMIPSI, Knobs{FlatMemory: true}},
		{core.SysMIPSI, Knobs{Threaded: true}},
		{core.SysJava, Knobs{Threaded: true}},
		{core.SysTcl, Knobs{CachedParse: true}},
	}
	for _, sys := range []core.System{core.SysMIPSI, core.SysJava, core.SysPerl, core.SysTcl} {
		for _, t := range Tiers(sys) {
			sets = append(sets, knobSet{sys, t.Knobs})
		}
	}
	return sets
}

// TestDESAgreesAcrossLanguages is the suite's anchor: the same cipher in
// all five systems must print the same checksum, and so must every
// interpreter under every knob set the experiments measure — a knob moves
// the cost signature, never the guest's output.
func TestDESAgreesAcrossLanguages(t *testing.T) {
	const blocks = 5
	want := strconv.Itoa(DESChecksum(blocks))
	progs := []core.Program{
		DESNative(blocks), DESMIPSI(blocks), DESJava(blocks),
		DESPerl(blocks), DESTcl(blocks),
	}
	for _, s := range experimentKnobs() {
		if s.k != (Knobs{}) { // the defaults are the five above
			progs = append(progs, DESWith(s.sys, blocks, "", s.k))
		}
	}
	for _, p := range progs {
		res, err := core.Measure(p)
		if err != nil {
			t.Fatalf("%s: %v", p.ID(), err)
		}
		out := strings.TrimSpace(res.Stdout)
		if out != want {
			t.Errorf("%s checksum = %q, want %q", p.ID(), out, want)
		}
	}
}

// TestRunnersCheckExitStatus pins that every runner fails on a nonzero
// guest exit status instead of rendering numbers, under every knob set the
// experiments use: des's main returns its round-trip error count, so a
// knob that broke the cipher must fail the measurement.
func TestRunnersCheckExitStatus(t *testing.T) {
	const src = "int main() { return 3; }"
	for _, s := range experimentKnobs() {
		s := s
		var run func(ctx *core.Ctx) error
		switch s.sys {
		case core.SysMIPSI:
			run = func(ctx *core.Ctx) error { return runMIPS(ctx, s.k, "exit3", minicc.WithStdlib(src)) }
		case core.SysJava:
			run = func(ctx *core.Ctx) error { return runJava(ctx, s.k, "exit3", minicc.WithStdlibJVM(src)) }
		case core.SysPerl:
			run = func(ctx *core.Ctx) error { return runPerl(ctx, s.k, "exit(3);") }
		case core.SysTcl:
			run = func(ctx *core.Ctx) error { return runTcl(ctx, s.k, "exit 3", false) }
		}
		_, err := core.Measure(core.Program{System: s.sys, Name: "exit3", Run: run})
		if err == nil || !strings.HasSuffix(err.Error(), " 3") {
			t.Errorf("%s %+v: measuring a guest that exits 3 gave error %v, want one naming the status", s.sys, s.k, err)
		}
	}
}
