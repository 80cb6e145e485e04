package mipsi

// Superinstruction tier: an emulator cannot rewrite guest text (the guest
// may read or checksum its own code), so MIPSI fuses the way real
// emulators do — a predecode pass over the text segment finds hot adjacent
// pairs and records them in a dispatch-side table; the fetch loop then
// dispatches a recorded pair as one fused virtual command through a
// combined handler.  Guest-architectural state moves exactly as before:
// both instructions execute unchanged, so the tier is semantically
// transparent and only the dispatch accounting changes.

import "interplab/internal/mips"

// Predecode/fused-dispatch costs, in native instructions.
const (
	costFusePredecode = 3 // per text word: decode, classify, table store
	costFusedDispatch = 8 // predecode-table load, pair check, indirect jump
)

// mipsiFusedPairs lists the fused pairs, hottest first, as measured by the
// profile layer's pair counts on the des workload (the opt-matrix
// experiment's hot-pair report reproduces the table).  Every half is
// straight-line (ALU, shift, load, store, or lui-class immediate): no
// branches, jumps, or syscalls, so the second half always executes
// immediately after the first.
var mipsiFusedPairs = [][2]mips.Op{
	{mips.LW, mips.ADDIU},
	{mips.SW, mips.SW},
	{mips.LW, mips.LW},
	{mips.ADDIU, mips.LW},
	{mips.ADDU, mips.LW},
	{mips.SW, mips.ADDU},
	{mips.LUI, mips.ORI},
	{mips.SLL, mips.ADDU},
}

// mipsiFuseIndex maps an opcode pair to its mipsiFusedPairs index.
var mipsiFuseIndex = func() map[[2]mips.Op]int {
	m := make(map[[2]mips.Op]int, len(mipsiFusedPairs))
	for i, pair := range mipsiFusedPairs {
		m[pair] = i
	}
	return m
}()

// handlerSize mirrors the baseline handler footprints New registers.
func handlerSize(o mips.Op) int {
	switch o.Class() {
	case mips.ClassLoad, mips.ClassStore:
		return 40
	case mips.ClassBranch:
		return 20
	case mips.ClassJump:
		return 16
	case mips.ClassMulDiv:
		return 24
	case mips.ClassSyscall:
		return 200
	}
	return 12
}

// ensureTiers runs the predecode pass before the first Step when the
// superinstruction tier is on.  Fused handler routines and op names join
// the instrumentation image here, in fixed table order, so the baseline
// image layout is untouched with the tier off.
func (ip *Interp) ensureTiers() {
	if ip.tiersReady {
		return
	}
	ip.tiersReady = true
	if !ip.Superinstructions {
		return
	}
	ip.rFuse = ip.img.Routine("mipsi.fuse", 72)
	for _, pair := range mipsiFusedPairs {
		name := pair[0].String() + "+" + pair[1].String()
		// A fused handler's body is both halves' bodies plus glue: the
		// superinstruction trade of instruction-cache footprint for
		// dispatch, which the opt-matrix icache sweeps measure.
		size := handlerSize(pair[0]) + handlerSize(pair[1]) + 6
		ip.fusedH = append(ip.fusedH, ip.img.Routine("mipsi.op."+name, size))
		ip.fusedIDs = append(ip.fusedIDs, ip.p.OpName(name))
	}
	ip.fuseText()
}

// fuseText finds every non-overlapping occurrence of a fused pair in the
// loaded text (greedy, left to right) and marks its first word in the
// decode table.  Pairs split across a page boundary are skipped: the fetch
// fast path caches one translated page, and a fused fetch must stay within
// it.  The pass is charged to the startup phase, like the binary load.
func (ip *Interp) fuseText() {
	p := ip.p
	p.SetStartup(true)
	p.Call(ip.rFuse)
	m := ip.M
	text := m.text
	for i := 0; i < len(text); i++ {
		pc := m.textBase + uint32(i)*4
		p.Exec(ip.rFuse, costFusePredecode)
		if i+1 >= len(text) || pc>>12 != (pc+4)>>12 {
			continue
		}
		if idx, ok := mipsiFuseIndex[[2]mips.Op{text[i].Op, text[i+1].Op}]; ok {
			text[i].fused = uint8(idx + 1)
			ip.FusedSites++
			i++ // greedy: a fused second half never starts another pair
		}
	}
	p.Ret()
	p.SetStartup(false)
}

// stepFused interprets the fused pair that starts with d, at pc, as a
// single virtual command: one trip through the fetch loop and the
// predecode table, then both halves execute inside the fused handler.
func (ip *Interp) stepFused(pc uint32, d *decoded) error {
	m, p := ip.M, ip.p
	idx := int(d.fused) - 1
	p.BeginCommand(ip.fusedIDs[idx])

	// One fetch covers the pair: the site is same-page by construction,
	// so the second word rides the first's translation.
	p.Exec(ip.rFetch, costFetchLoop)
	if page := pc >> 12; page == ip.lastFetchPage {
		p.Exec(ip.rFetch, costFetchFast)
	} else {
		ip.translate(pc)
		ip.lastFetchPage = page
	}
	p.Load(guestBias | pc)
	p.Load(guestBias | (pc + 4))
	// Predecoded dispatch replaces the decode switch entirely.
	p.Exec(ip.rDecode, costFusedDispatch)
	p.Load(ip.regs.Addr(uint32(d.Rs) * 4))
	p.Load(ip.regs.Addr(uint32(d.Rt) * 4))

	p.BeginExecute()
	h := ip.fusedH[idx]
	var info StepInfo
	if err := m.Exec(pc, &d.Inst, &info); err != nil {
		if err == ErrExited {
			p.EndCommand()
		}
		return err
	}
	ip.chargeExec(h, &d.Inst, &info)

	// The first half is straight-line, so the machine now sits on the
	// second: re-fetch architecturally (free — the word was predecoded)
	// and execute it under the same command.
	pc2 := m.PC
	d2, err := m.fetch()
	if err != nil {
		return err
	}
	p.Load(ip.regs.Addr(uint32(d2.Rs) * 4))
	p.Load(ip.regs.Addr(uint32(d2.Rt) * 4))
	if err := m.Exec(pc2, &d2.Inst, &info); err != nil {
		if err == ErrExited {
			p.EndCommand()
		}
		return err
	}
	ip.chargeExec(h, &d2.Inst, &info)
	p.EndCommand()
	return nil
}
