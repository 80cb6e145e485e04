package mipsi

import (
	"fmt"

	"interplab/internal/atom"
	"interplab/internal/mips"
	"interplab/internal/vfs"
)

// guestBias relocates guest data addresses out of the instrumentation
// image's own data space: to the interpreter, the guest's memory is just
// one more data structure, but it must not alias the interpreter's tables.
const guestBias uint32 = 0x8000_0000

// Cost model of the MIPSI implementation, in native instructions.  The
// constants describe the C implementation the paper measured (a fetch
// loop, a big decode switch, a two-level page-table walk) and are
// calibrated so that the per-command averages land in the bands of
// Table 2: fetch/decode ≈ 47–51, execute ≈ 17–23, and the §3.3 memory
// model at 13–18% of all instructions.
const (
	costFetchLoop = 12 // loop overhead: pc update, counters, exit checks
	costFetchFast = 5  // same-page fetch fast path (translation cached)
	costDecode    = 25 // field extraction plus the dispatch switch
	costTranslate = 38 // two-level page-table walk with protection checks
	costALU       = 5
	costShift     = 5
	costMulDiv    = 5
	costBranch    = 8
	costJump      = 7
	costMemOp     = 9 // address formation, alignment check, sign extension
	costSyscall   = 40
)

// Interp is MIPSI proper: the instrumented instruction-level emulator.
// Each guest instruction is one virtual command named by its mnemonic.
type Interp struct {
	M *Machine
	p *atom.Probe

	// FlatMemory models a hypothetical MIPSI without simulated page
	// tables (a direct array memory): the §3.3 ablation.  Translation
	// work collapses to a bounds check.
	FlatMemory bool

	// Threaded models threaded interpretation (§5, [Bell 73]): the
	// decode switch is replaced by an indirect jump through a handler
	// table, shrinking the per-command dispatch cost.
	Threaded bool

	// Superinstructions models the §5 superoperator direction: the
	// guest text is predecoded at first Run and hot adjacent pairs
	// (mipsiFusedPairs, selected from profile-layer pair counts) are
	// dispatched as one fused virtual command through a combined
	// handler.  FusedSites counts the static pair sites found.
	Superinstructions bool
	FusedSites        uint64

	img        *atom.Image
	rLoader    *atom.Routine
	rFetch     *atom.Routine
	rTranslate *atom.Routine
	rDecode    *atom.Routine
	rFuse      *atom.Routine
	handlers   [mips.NumOps]*atom.Routine
	opIDs      [mips.NumOps]atom.OpID

	tiersReady bool
	fusedH     []*atom.Routine
	fusedIDs   []atom.OpID

	memRegion atom.RegionID

	regs *atom.DataRegion
	pt   *atom.DataRegion

	lastFetchPage uint32
}

// New loads prog into a machine and instruments the interpreter against
// img/p.  The binary load is charged to the startup phase.
func New(prog *mips.Program, os *vfs.OS, img *atom.Image, p *atom.Probe) (*Interp, error) {
	ip := &Interp{p: p, img: img}
	// The interpreter's code layout: fetch loop, page-table walker, the
	// decode switch, then one handler per mnemonic.  Sizes are static
	// code footprints; together they come to ~7 KB, which is why MIPSI's
	// loop largely fits in an 8 KB instruction cache (§4.1).
	ip.rLoader = img.Routine("mipsi.loader", 120)
	ip.rFetch = img.Routine("mipsi.fetch", 80)
	ip.rTranslate = img.Routine("mipsi.translate", 100)
	ip.rDecode = img.Routine("mipsi.decode", 256)
	for op := 1; op < mips.NumOps; op++ {
		o := mips.Op(op)
		size := 12
		switch o.Class() {
		case mips.ClassLoad, mips.ClassStore:
			size = 40
		case mips.ClassBranch:
			size = 20
		case mips.ClassJump:
			size = 16
		case mips.ClassMulDiv:
			size = 24
		case mips.ClassSyscall:
			size = 200
		}
		ip.handlers[op] = img.Routine("mipsi.op."+o.String(), size)
		ip.opIDs[op] = p.OpName(o.String())
	}
	ip.regs = img.Data("mipsi.regs", 35*4) // 32 GPRs + hi, lo, pc
	ip.pt = img.Data("mipsi.pagetable", 64<<10)
	ip.memRegion = p.RegionName("memmodel")

	m, err := NewMachine(prog, os)
	if err != nil {
		return nil, err
	}
	ip.M = m
	ip.lastFetchPage = ^uint32(0)

	// Startup: copy the binary into guest memory, one word at a time.
	p.SetStartup(true)
	p.Call(ip.rLoader)
	for i := range prog.Text {
		p.Exec(ip.rLoader, 2)
		p.Store(guestBias | (prog.TextBase + uint32(i)*4))
	}
	for i := 0; i+4 <= len(prog.Data); i += 4 {
		p.Exec(ip.rLoader, 2)
		p.Store(guestBias | (prog.DataBase + uint32(i)))
	}
	p.Ret()
	p.SetStartup(false)
	return ip, nil
}

// translate charges one page-table walk for guest address vaddr: the walk
// code plus loads of the root entry, the leaf entry, and the frame pointer.
func (ip *Interp) translate(vaddr uint32) {
	p := ip.p
	if ip.FlatMemory {
		p.Exec(ip.rTranslate, 3) // bounds check and base add only
		return
	}
	p.Exec(ip.rTranslate, costTranslate)
	p.Load(ip.pt.Addr((vaddr >> 22) * 4))
	p.Load(ip.pt.Addr(4096 + (vaddr>>12&0x3fff)*4))
	p.Load(ip.pt.Addr(8))
}

// Step interprets one guest instruction (or one fused pair, when the
// superinstruction tier predecoded one at this pc).
func (ip *Interp) Step() error {
	ip.ensureTiers()
	m := ip.M
	pc := m.PC
	d, err := m.fetch()
	if err != nil {
		return err
	}
	p := ip.p
	op := d.Op
	if op == mips.INVALID {
		return fmt.Errorf("mipsi: invalid instruction at %#x", pc)
	}
	// A delay-slot instruction executes alone even at a fused site: its
	// successor is the branch target, not the adjacent word.
	if d.fused != 0 && !m.delayActive {
		return ip.stepFused(pc, d)
	}
	p.BeginCommand(ip.opIDs[op])

	// Fetch: translate the PC (fast path when the page is unchanged, as
	// MIPSI caches the last text frame), then load the instruction word
	// from guest text, then decode and read the operand registers.  The
	// host decoded the word once, at load; the simulated MIPSI pays for
	// fetch and decode on every execution.
	p.Exec(ip.rFetch, costFetchLoop)
	if page := pc >> 12; page == ip.lastFetchPage {
		p.Exec(ip.rFetch, costFetchFast)
	} else {
		ip.translate(pc)
		ip.lastFetchPage = page
	}
	p.Load(guestBias | pc)
	if ip.Threaded {
		// Table-indexed dispatch: mask, index, indirect jump.
		p.Exec(ip.rDecode, 6)
	} else {
		p.Exec(ip.rDecode, costDecode)
	}
	p.Load(ip.regs.Addr(uint32(d.Rs) * 4))
	p.Load(ip.regs.Addr(uint32(d.Rt) * 4))

	p.BeginExecute()
	var info StepInfo
	if err := m.Exec(pc, &d.Inst, &info); err != nil {
		if err == ErrExited {
			p.EndCommand()
		}
		return err
	}

	ip.chargeExec(ip.handlers[op], &d.Inst, &info)
	p.EndCommand()
	return nil
}

// chargeExec accounts one architecturally executed instruction against
// handler routine h (its own handler normally, the fused handler when the
// instruction ran as half of a superinstruction).
func (ip *Interp) chargeExec(h *atom.Routine, in *mips.Inst, info *StepInfo) {
	p := ip.p
	switch in.Op.Class() {
	case mips.ClassALU:
		p.Exec(h, costALU)
		p.Store(ip.regs.Addr(uint32(in.Rd) * 4))
	case mips.ClassShift:
		p.Exec(h, costShift)
		p.Store(ip.regs.Addr(uint32(in.Rd) * 4))
	case mips.ClassMulDiv:
		p.Exec(h, costMulDiv)
		p.ExecMul(h, 2)
		p.Store(ip.regs.Addr(32 * 4)) // hi
		p.Store(ip.regs.Addr(33 * 4)) // lo
	case mips.ClassBranch:
		p.Exec(h, costBranch)
		p.Store(ip.regs.Addr(34 * 4)) // next-pc
	case mips.ClassJump:
		p.Exec(h, costJump)
		p.Store(ip.regs.Addr(34 * 4))
	case mips.ClassLoad:
		p.Exec(h, costMemOp)
		p.Enter(ip.memRegion)
		ip.translate(info.MemAddr)
		p.CountAccess(ip.memRegion)
		p.Leave()
		p.Load(guestBias | info.MemAddr)
		p.Store(ip.regs.Addr(uint32(in.Rt) * 4))
	case mips.ClassStore:
		p.Exec(h, costMemOp)
		p.Enter(ip.memRegion)
		ip.translate(info.MemAddr)
		p.CountAccess(ip.memRegion)
		p.Leave()
		p.Store(guestBias | info.MemAddr)
	case mips.ClassSyscall:
		// The vfs layer has already charged its own precompiled-code
		// costs during m.Exec; here we charge the trap path and the
		// copy into guest memory.
		p.Exec(h, costSyscall)
		if in.Op == mips.SYSCALL && info.SyscallNum == SysRead && info.SyscallBytes > 0 {
			buf := ip.M.Regs[mips.RegA1]
			for i := 0; i < info.SyscallBytes; i += 4 {
				p.Exec(h, 1)
				p.Store(guestBias | (buf + uint32(i)))
			}
		}
	}
}

// Run interprets until exit or maxSteps guest instructions (0 = no limit).
func (ip *Interp) Run(maxSteps uint64) error {
	for maxSteps == 0 || ip.M.Steps < maxSteps {
		if err := ip.Step(); err != nil {
			if err == ErrExited || ip.M.Exited() {
				return nil
			}
			return err
		}
		if ip.M.Exited() {
			return nil
		}
	}
	return fmt.Errorf("mipsi: step budget exhausted (%d)", maxSteps)
}
