package workloads

import "interplab/internal/core"

// Tier is one optimization-tier combination of the §5 software ladder:
// quickening (operand specialization at first execution) and
// superinstructions (fused hot opcode pairs).  Knobs are the settings its
// cell runs des with; the baseline tier sets no optimization.
type Tier struct {
	Key   string
	Knobs Knobs
}

// Variant returns the Program.Variant key for a tier cell.  Baseline
// cells are also keyed ("tier-baseline") so matrix measurements never
// collide with the plain Table 2 runs in the measurement cache.
func (t Tier) Variant() string { return "tier-" + t.Key }

// Tiers returns the combinations applicable to a system: MIPSI fuses but
// cannot quicken (an emulator has no operands to pre-resolve — guest
// instructions are already register-encoded), the JVM does both, and the
// two op-tree/string interpreters quicken but have no adjacent-opcode
// stream to fuse.  The baseline cells of the two fusing interpreters also
// count consecutive-dispatch pairs (Stats.Pairs): the evidence their
// superinstruction tables were selected from.
func Tiers(sys core.System) []Tier {
	var (
		baseline = Tier{Key: "baseline"}
		pairs    = Tier{Key: "baseline", Knobs: Knobs{CountPairs: true}}
		quicken  = Tier{Key: "quicken", Knobs: Knobs{Quicken: true}}
		super    = Tier{Key: "super", Knobs: Knobs{Super: true}}
		both     = Tier{Key: "quicken+super", Knobs: Knobs{Quicken: true, Super: true}}
	)
	switch sys {
	case core.SysMIPSI:
		return []Tier{pairs, super}
	case core.SysJava:
		return []Tier{pairs, quicken, super, both}
	case core.SysPerl, core.SysTcl:
		return []Tier{baseline, quicken}
	}
	return []Tier{baseline}
}

// DESTiered returns the des workload for sys at a scale (1 = the Table 2
// size) with the tier's knobs set.  Guest-visible behavior is identical
// across tiers (the interpreters' differential tests pin this); only the
// cost signature moves.
func DESTiered(sys core.System, scale float64, t Tier) core.Program {
	return DESWith(sys, desBlocks(sys, scale), t.Variant(), t.Knobs)
}
