package workloads

import (
	"fmt"

	"interplab/internal/core"
	"interplab/internal/jvm"
	"interplab/internal/minicc"
	"interplab/internal/mipsi"
	"interplab/internal/perl"
	"interplab/internal/tcl"
)

// Tier is one optimization-tier combination of the §5 software ladder:
// quickening (operand specialization at first execution) and
// superinstructions (fused hot opcode pairs).  The zero Tier is the
// baseline 1996-level interpreter.
type Tier struct {
	Key            string
	Quicken, Super bool
}

// The tier combinations the opt-matrix experiment measures.
var (
	TierBaseline = Tier{Key: "baseline"}
	TierQuicken  = Tier{Key: "quicken", Quicken: true}
	TierSuper    = Tier{Key: "super", Super: true}
	TierBoth     = Tier{Key: "quicken+super", Quicken: true, Super: true}
)

// Variant returns the Program.Variant key for a tier cell.  Baseline
// cells are also keyed ("tier-baseline") so matrix measurements never
// collide with the plain Table 2 runs in the measurement cache.
func (t Tier) Variant() string { return "tier-" + t.Key }

// Tiers returns the combinations applicable to a system: MIPSI fuses but
// cannot quicken (an emulator has no operands to pre-resolve — guest
// instructions are already register-encoded), the JVM does both, and the
// two op-tree/string interpreters quicken but have no adjacent-opcode
// stream to fuse.
func Tiers(sys core.System) []Tier {
	switch sys {
	case core.SysMIPSI:
		return []Tier{TierBaseline, TierSuper}
	case core.SysJava:
		return []Tier{TierBaseline, TierQuicken, TierSuper, TierBoth}
	case core.SysPerl, core.SysTcl:
		return []Tier{TierBaseline, TierQuicken}
	}
	return []Tier{TierBaseline}
}

// tierBlocks returns the des problem size for a system at a scale,
// matching Suite's sizing.
func tierBlocks(sys core.System, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	base := 150
	switch sys {
	case core.SysJava:
		base = 260
	case core.SysPerl:
		base = 18
	case core.SysTcl:
		base = 6
	}
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// DESTiered returns the des workload for sys with the tier's knobs set.
// Guest-visible behavior is identical across tiers (the interpreters'
// differential tests pin this); only the cost signature moves.  The
// baseline cells of the two fusing interpreters, MIPSI and Java, also
// count consecutive-dispatch pairs (Stats.Pairs): the evidence their
// superinstruction tables were selected from.  Counting is host-side
// bookkeeping and emits no native instructions.
func DESTiered(sys core.System, scale float64, t Tier) core.Program {
	blocks := tierBlocks(sys, scale)
	p := core.Program{
		System:  sys,
		Name:    "des",
		Desc:    "DES encryption and decryption",
		Variant: t.Variant(),
	}
	switch sys {
	case core.SysMIPSI:
		p.Run = func(ctx *core.Ctx) error {
			ctx.Probe.CountPairs(t == TierBaseline)
			prog, err := minicc.CompileMIPS("des", minicc.WithStdlib(desMiniC(blocks)))
			if err != nil {
				return err
			}
			ctx.SetProgramSize(prog.SizeBytes())
			ip, err := mipsi.New(prog, ctx.OS, ctx.Image, ctx.Probe)
			if err != nil {
				return err
			}
			ip.Superinstructions = t.Super
			if err := ip.Run(0); err != nil {
				return err
			}
			if ip.M.ExitCode != 0 {
				return fmt.Errorf("guest exited with %d", ip.M.ExitCode)
			}
			return nil
		}
	case core.SysJava:
		p.Run = func(ctx *core.Ctx) error {
			ctx.Probe.CountPairs(t == TierBaseline)
			mod, err := minicc.CompileJVM("des", minicc.WithStdlibJVM(desMiniC(blocks)))
			if err != nil {
				return err
			}
			ctx.SetProgramSize(mod.CodeBytes())
			if err := mod.Bind(jvm.OSNatives(ctx.OS)); err != nil {
				return err
			}
			vm, err := jvm.New(mod, ctx.Image, ctx.Probe)
			if err != nil {
				return err
			}
			vm.Quicken = t.Quicken
			vm.Superinstructions = t.Super
			ret, err := vm.Run("main", 0)
			if err != nil {
				return err
			}
			if ret != 0 {
				return fmt.Errorf("main returned %d", ret)
			}
			return nil
		}
	case core.SysPerl:
		p.Run = func(ctx *core.Ctx) error {
			src := desPerlSrc(blocks)
			ctx.SetProgramSize(len(src))
			ip, err := perl.New(src, ctx.OS, ctx.Image, ctx.Probe)
			if err != nil {
				return err
			}
			ip.Quicken = t.Quicken
			if err := ip.Run(); err != nil {
				return err
			}
			if ip.ExitCode() != 0 {
				return fmt.Errorf("script exited with %d", ip.ExitCode())
			}
			return nil
		}
	case core.SysTcl:
		p.Run = func(ctx *core.Ctx) error {
			src := desTclSrc(blocks)
			ctx.SetProgramSize(len(src))
			i := tcl.New(ctx.OS, ctx.Image, ctx.Probe)
			i.Quicken = t.Quicken
			if _, err := i.Eval(src); err != nil {
				return err
			}
			if i.ExitCode() != 0 {
				return fmt.Errorf("script exited with %d", i.ExitCode())
			}
			return nil
		}
	default:
		p.Run = func(*core.Ctx) error {
			return fmt.Errorf("workloads: no tiered des for system %s", sys)
		}
	}
	return p
}
