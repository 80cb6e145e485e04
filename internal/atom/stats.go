package atom

import (
	"sort"

	"interplab/internal/trace"
)

// OpStats reports the accounting for one virtual command.  The JSON tags
// are the manifest schema (docs/OBSERVABILITY.md); keep them stable.
type OpStats struct {
	Name        string `json:"name"`
	Count       uint64 `json:"count"`
	FetchDecode uint64 `json:"fetch_decode"` // native instructions spent fetching/decoding
	Execute     uint64 `json:"execute"`      // native instructions spent executing
}

// Total returns the command's combined instruction count.
func (o OpStats) Total() uint64 { return o.FetchDecode + o.Execute }

// PairStats counts one ordered pair of consecutively dispatched virtual
// commands: Second was dispatched immediately after First.  Pair counts
// drive superinstruction selection (the fused-pair tables in internal/jvm
// and internal/mipsi) and are collected only when Probe.CountPairs is on.
type PairStats struct {
	First  string `json:"first"`
	Second string `json:"second"`
	Count  uint64 `json:"count"`
}

// RegionStats reports the accounting for one attribution region.
type RegionStats struct {
	Name         string `json:"name"`
	Instructions uint64 `json:"instructions"`
	Accesses     uint64 `json:"accesses"`
}

// PerAccess returns the average instructions per recorded access, the §3.3
// metric ("each variable reference costs N native instructions").
func (r RegionStats) PerAccess() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Accesses)
}

// Stats is the complete account of one measured run.
type Stats struct {
	Commands     uint64        `json:"commands"`
	Instructions uint64        `json:"instructions"` // everything, including startup
	Startup      uint64        `json:"startup"`
	FetchDecode  uint64        `json:"fetch_decode"`
	Execute      uint64        `json:"execute"`
	Loads        uint64        `json:"loads"`
	Stores       uint64        `json:"stores"`
	Ops          []OpStats     `json:"ops,omitempty"`     // sorted by descending total instructions
	Regions      []RegionStats `json:"regions,omitempty"` // in registration order
	// Pairs holds the hottest consecutively-dispatched command pairs,
	// sorted by descending count (schema v1 additive field; present only
	// when the run counted pairs, capped at maxPairStats entries).
	Pairs []PairStats `json:"pairs,omitempty"`
}

// maxPairStats bounds the pair table a Stats snapshot carries: hot-pair
// reports read the top of the distribution, and an uncapped table would
// bloat manifests quadratically in the opcode count.
const maxPairStats = 64

// InstructionsPerCommand returns the average native instructions per virtual
// command, split as in Table 2.  Startup (precompilation) instructions are
// excluded, as the paper excludes them.
func (s Stats) InstructionsPerCommand() (fetchDecode, execute float64) {
	if s.Commands == 0 {
		return 0, 0
	}
	return float64(s.FetchDecode) / float64(s.Commands), float64(s.Execute) / float64(s.Commands)
}

// Stats snapshots the probe's accounts.
func (p *Probe) Stats() Stats {
	s := Stats{
		Commands:     p.commands,
		Instructions: p.tally.Total,
		Startup:      p.byPhase[PhaseStartup],
		FetchDecode:  p.byPhase[PhaseFetchDecode],
		Execute:      p.byPhase[PhaseExecute],
		Loads:        p.tally.ByKind[trace.Load],
		Stores:       p.tally.ByKind[trace.Store],
	}
	for _, o := range p.ops {
		if o.count == 0 && o.fd == 0 && o.ex == 0 {
			continue
		}
		s.Ops = append(s.Ops, OpStats{Name: o.name, Count: o.count, FetchDecode: o.fd, Execute: o.ex})
	}
	sort.Slice(s.Ops, func(i, j int) bool {
		ti, tj := s.Ops[i].Total(), s.Ops[j].Total()
		if ti != tj {
			return ti > tj
		}
		return s.Ops[i].Name < s.Ops[j].Name
	})
	for _, r := range p.regions {
		s.Regions = append(s.Regions, RegionStats{Name: r.name, Instructions: r.instr, Accesses: r.accesses})
	}
	for key, count := range p.pairs {
		s.Pairs = append(s.Pairs, PairStats{
			First:  p.ops[key>>32].name,
			Second: p.ops[uint32(key)].name,
			Count:  count,
		})
	}
	sort.Slice(s.Pairs, func(i, j int) bool {
		if s.Pairs[i].Count != s.Pairs[j].Count {
			return s.Pairs[i].Count > s.Pairs[j].Count
		}
		if s.Pairs[i].First != s.Pairs[j].First {
			return s.Pairs[i].First < s.Pairs[j].First
		}
		return s.Pairs[i].Second < s.Pairs[j].Second
	})
	if len(s.Pairs) > maxPairStats {
		s.Pairs = s.Pairs[:maxPairStats]
	}
	return s
}

// Region returns the stats for a named region and whether it exists.
func (s Stats) Region(name string) (RegionStats, bool) {
	for _, r := range s.Regions {
		if r.Name == name {
			return r, true
		}
	}
	return RegionStats{}, false
}

// Op returns the stats for a named virtual command and whether it exists.
func (s Stats) Op(name string) (OpStats, bool) {
	for _, o := range s.Ops {
		if o.Name == name {
			return o, true
		}
	}
	return OpStats{}, false
}
