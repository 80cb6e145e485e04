package mipsi

import (
	"fmt"

	"interplab/internal/mips"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// Syscall numbers of the laboratory's guest ABI ($v0 selects, $a0..$a2 are
// arguments, $v0 returns).
const (
	SysExit  = 1
	SysRead  = 3
	SysWrite = 4
	SysOpen  = 5
	SysClose = 6
	SysSbrk  = 9
)

// ErrExited is reported by Step once the guest has called exit.
var ErrExited = fmt.Errorf("mipsi: program exited")

// StepInfo describes one architecturally executed instruction, with
// everything the instrumentation wrappers need to account it.
type StepInfo struct {
	PC uint32
	// MemAddr is the effective address for loads/stores.
	MemAddr uint32
	// Taken reports a conditional branch's outcome.
	Taken bool
	// Target is the control-transfer destination, when taken.
	Target uint32
	// InDelaySlot reports the instruction executed in a branch delay slot.
	InDelaySlot bool
	// SyscallNum is the service number when Inst is a syscall.
	SyscallNum uint32
	// SyscallBytes is the payload size a read/write syscall moved.
	SyscallBytes int
}

// decoded is one predecoded text word: the instruction, plus what each
// execution mode would otherwise work out from it on every step.
type decoded struct {
	mips.Inst

	// kind and flags are the event Native emits for the instruction (the
	// caller adds the operands' dependence, the branch outcome and the
	// address), and dest is the register it writes, 0 for none.
	kind  trace.Kind
	flags trace.Flags
	dest  uint8

	// fused is 1 + the mipsiFusedPairs index of the fused pair that
	// starts at this word, or 0.  The superinstruction tier sets it once,
	// from the loaded text, at the first Run; decoding never changes it.
	fused uint8

	// stale marks a word that a store has written since it was decoded:
	// the next fetch decodes it again from memory.
	stale bool
}

// decode sets d to the instruction word at pc, leaving its fused mark.
func (d *decoded) decode(word, pc uint32) {
	d.Inst = mips.Decode(word, pc)
	d.kind, d.flags, d.dest, d.stale = trace.Int, 0, 0, false
	switch in := &d.Inst; in.Op.Class() {
	case mips.ClassALU:
		d.dest = uint8(in.Rd)
		switch in.Op {
		case mips.ADDI, mips.ADDIU, mips.SLTI, mips.SLTIU,
			mips.ANDI, mips.ORI, mips.XORI, mips.LUI:
			d.dest = uint8(in.Rt)
		}
	case mips.ClassShift:
		d.kind, d.dest = trace.ShortInt, uint8(in.Rd)
	case mips.ClassMulDiv:
		d.kind = trace.Mul
	case mips.ClassLoad:
		d.kind, d.dest = trace.Load, uint8(in.Rt)
	case mips.ClassStore:
		d.kind = trace.Store
	case mips.ClassBranch:
		d.kind = trace.Branch
	case mips.ClassJump:
		d.kind = trace.Jump
		switch {
		case in.Op == mips.JAL:
			d.flags, d.dest = trace.FlagCall, mips.RegRA
		case in.Op == mips.JALR:
			d.flags, d.dest = trace.FlagCall, uint8(in.Rd)
		case in.Op == mips.JR && in.Rs == mips.RegRA:
			d.kind = trace.Return
		}
	case mips.ClassSyscall:
		// A trap is a call into the kernel.
		d.kind, d.flags = trace.Jump, trace.FlagCall
	}
}

// Machine is the architectural state of one guest: registers, hi/lo, pc,
// guest memory, and the descriptor table of the hosting OS.
//
// The text segment is decoded once, by NewMachine, into a table that the
// steppers fetch from.  Stores the machine executes (SB, SH, SW and the
// read syscall) keep the table true to memory; a write into text straight
// through Mem is not seen by it.
type Machine struct {
	Regs [32]uint32
	Hi   uint32
	Lo   uint32
	PC   uint32

	Mem  *Memory
	Prog *mips.Program
	OS   *vfs.OS

	brk      uint32
	exited   bool
	ExitCode uint32

	// Steps counts architecturally executed instructions.
	Steps uint64

	// branch delay: when a branch at PC resolves, the instruction at
	// PC+4 still executes before control transfers.
	delayActive bool
	delayTarget uint32

	// text is the decode table: text[(pc-textBase)/4] is the word at pc.
	// spare holds what fetchMem decodes for a pc outside the table.
	text     []decoded
	textBase uint32
	spare    decoded
}

// NewMachine loads prog into a fresh address space.
func NewMachine(prog *mips.Program, os *vfs.OS) (*Machine, error) {
	m := &Machine{Mem: NewMemory(), Prog: prog, OS: os, PC: prog.Entry,
		text: make([]decoded, len(prog.Text)), textBase: prog.TextBase}
	for i, w := range prog.Text {
		pc := prog.TextBase + uint32(i)*4
		if err := m.Mem.StoreWord(pc, w); err != nil {
			return nil, err
		}
		m.text[i].decode(w, pc)
	}
	m.wroteText(prog.DataBase, len(prog.Data))
	if err := m.Mem.WriteBytes(prog.DataBase, prog.Data); err != nil {
		return nil, err
	}
	m.brk = (prog.DataEnd() + mips.HeapAlign - 1) &^ (mips.HeapAlign - 1)
	if m.brk < prog.DataBase {
		m.brk = prog.DataBase
	}
	m.Regs[mips.RegSP] = mips.StackTop
	// Touch the stack page so deep-recursion stores are cheap.
	m.wroteText(mips.StackTop-4, 4)
	if err := m.Mem.StoreWord(mips.StackTop-4, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// Exited reports whether the guest has called exit.
func (m *Machine) Exited() bool { return m.exited }

func signed(v uint32) int32 { return int32(v) }

// Step fetches and executes one instruction, describing it in info.
func (m *Machine) Step(info *StepInfo) error {
	pc := m.PC
	d, err := m.fetch()
	if err != nil {
		return err
	}
	return m.Exec(pc, &d.Inst, info)
}

// fetch returns the instruction at the PC without changing architectural
// state, so instrumentation can open the virtual command before execution:
// the PC's decode-table entry, unless the PC is outside the table or a
// store has since written the word.  The entry stays as it is until the
// next fetch, even when the instruction overwrites its own word.
func (m *Machine) fetch() (*decoded, error) {
	if m.exited {
		return nil, ErrExited
	}
	if off := m.PC - m.textBase; off&3 == 0 && off/4 < uint32(len(m.text)) {
		if d := &m.text[off/4]; !d.stale {
			return d, nil
		}
	}
	return m.fetchMem()
}

// fetchMem reads the word at the PC from guest memory and decodes it: the
// decode path behind the table.  A stale text word decodes back into its
// table entry; a PC outside the table (beyond the text segment, or
// misaligned) decodes into the spare entry, which the next call reuses.
func (m *Machine) fetchMem() (*decoded, error) {
	pc := m.PC
	word, err := m.Mem.LoadWord(pc)
	if err != nil {
		return nil, fmt.Errorf("mipsi: fetch at %#x: %w", pc, err)
	}
	d := &m.spare
	if off := pc - m.textBase; off&3 == 0 && off/4 < uint32(len(m.text)) {
		d = &m.text[off/4]
	}
	d.decode(word, pc)
	return d, nil
}

// wroteText marks stale every decode-table word that the n bytes stored
// at addr overlap.
func (m *Machine) wroteText(addr uint32, n int) {
	size := uint32(len(m.text)) * 4
	// The bytes are addr .. addr+n-1, wrapping at 2^32: none is in text
	// when the first lies past it and the run does not wrap round to it.
	if off := addr - m.textBase; off >= size && -off >= uint32(n) {
		return
	}
	for i := 0; i < n; i++ {
		if off := addr + uint32(i) - m.textBase; off < size {
			m.text[off/4].stale = true
		}
	}
}

// Exec executes in, the instruction fetched at pc, and describes it in
// info.
func (m *Machine) Exec(pc uint32, in *mips.Inst, info *StepInfo) error {
	*info = StepInfo{PC: pc, InDelaySlot: m.delayActive}

	// Default successor; a pending delayed branch overrides it after this
	// instruction completes.
	next := pc + 4
	if m.delayActive {
		next = m.delayTarget
		m.delayActive = false
	}

	r := &m.Regs
	rs, rt := r[in.Rs], r[in.Rt]

	setReg := func(n int, v uint32) {
		if n != 0 {
			r[n] = v
		}
	}
	branch := func(taken bool) {
		info.Taken = taken
		if taken {
			info.Target = in.BranchTarget(pc)
			m.delayActive = true
			m.delayTarget = info.Target
		}
	}

	switch in.Op {
	case mips.SLL:
		setReg(in.Rd, rt<<uint(in.Shamt))
	case mips.SRL:
		setReg(in.Rd, rt>>uint(in.Shamt))
	case mips.SRA:
		setReg(in.Rd, uint32(signed(rt)>>uint(in.Shamt)))
	case mips.SLLV:
		setReg(in.Rd, rt<<(rs&31))
	case mips.SRLV:
		setReg(in.Rd, rt>>(rs&31))
	case mips.SRAV:
		setReg(in.Rd, uint32(signed(rt)>>(rs&31)))
	case mips.JR:
		info.Taken, info.Target = true, rs
		m.delayActive, m.delayTarget = true, rs
	case mips.JALR:
		setReg(in.Rd, pc+8)
		info.Taken, info.Target = true, rs
		m.delayActive, m.delayTarget = true, rs
	case mips.SYSCALL:
		if err := m.syscall(info); err != nil {
			return err
		}
	case mips.BREAK:
		return fmt.Errorf("mipsi: break at %#x", pc)
	case mips.MFHI:
		setReg(in.Rd, m.Hi)
	case mips.MTHI:
		m.Hi = rs
	case mips.MFLO:
		setReg(in.Rd, m.Lo)
	case mips.MTLO:
		m.Lo = rs
	case mips.MULT:
		prod := int64(signed(rs)) * int64(signed(rt))
		m.Lo, m.Hi = uint32(prod), uint32(prod>>32)
	case mips.MULTU:
		prod := uint64(rs) * uint64(rt)
		m.Lo, m.Hi = uint32(prod), uint32(prod>>32)
	case mips.DIV:
		if rt != 0 {
			m.Lo = uint32(signed(rs) / signed(rt))
			m.Hi = uint32(signed(rs) % signed(rt))
		}
	case mips.DIVU:
		if rt != 0 {
			m.Lo = rs / rt
			m.Hi = rs % rt
		}
	case mips.ADD, mips.ADDU:
		setReg(in.Rd, rs+rt)
	case mips.SUB, mips.SUBU:
		setReg(in.Rd, rs-rt)
	case mips.AND:
		setReg(in.Rd, rs&rt)
	case mips.OR:
		setReg(in.Rd, rs|rt)
	case mips.XOR:
		setReg(in.Rd, rs^rt)
	case mips.NOR:
		setReg(in.Rd, ^(rs | rt))
	case mips.SLT:
		if signed(rs) < signed(rt) {
			setReg(in.Rd, 1)
		} else {
			setReg(in.Rd, 0)
		}
	case mips.SLTU:
		if rs < rt {
			setReg(in.Rd, 1)
		} else {
			setReg(in.Rd, 0)
		}
	case mips.BLTZ:
		branch(signed(rs) < 0)
	case mips.BGEZ:
		branch(signed(rs) >= 0)
	case mips.J:
		info.Taken, info.Target = true, in.Target
		m.delayActive, m.delayTarget = true, in.Target
	case mips.JAL:
		r[mips.RegRA] = pc + 8
		info.Taken, info.Target = true, in.Target
		m.delayActive, m.delayTarget = true, in.Target
	case mips.BEQ:
		branch(rs == rt)
	case mips.BNE:
		branch(rs != rt)
	case mips.BLEZ:
		branch(signed(rs) <= 0)
	case mips.BGTZ:
		branch(signed(rs) > 0)
	case mips.ADDI, mips.ADDIU:
		setReg(in.Rt, rs+uint32(in.Imm))
	case mips.SLTI:
		if signed(rs) < in.Imm {
			setReg(in.Rt, 1)
		} else {
			setReg(in.Rt, 0)
		}
	case mips.SLTIU:
		if rs < uint32(in.Imm) {
			setReg(in.Rt, 1)
		} else {
			setReg(in.Rt, 0)
		}
	case mips.ANDI:
		setReg(in.Rt, rs&uint32(in.Imm))
	case mips.ORI:
		setReg(in.Rt, rs|uint32(in.Imm))
	case mips.XORI:
		setReg(in.Rt, rs^uint32(in.Imm))
	case mips.LUI:
		setReg(in.Rt, uint32(in.Imm)<<16)
	case mips.LB:
		info.MemAddr = rs + uint32(in.Imm)
		b, err := m.Mem.LoadByte(info.MemAddr)
		if err != nil {
			return err
		}
		setReg(in.Rt, uint32(int32(int8(b))))
	case mips.LBU:
		info.MemAddr = rs + uint32(in.Imm)
		b, err := m.Mem.LoadByte(info.MemAddr)
		if err != nil {
			return err
		}
		setReg(in.Rt, uint32(b))
	case mips.LH:
		info.MemAddr = rs + uint32(in.Imm)
		h, err := m.Mem.LoadHalf(info.MemAddr)
		if err != nil {
			return err
		}
		setReg(in.Rt, uint32(int32(int16(h))))
	case mips.LHU:
		info.MemAddr = rs + uint32(in.Imm)
		h, err := m.Mem.LoadHalf(info.MemAddr)
		if err != nil {
			return err
		}
		setReg(in.Rt, uint32(h))
	case mips.LW:
		info.MemAddr = rs + uint32(in.Imm)
		w, err := m.Mem.LoadWord(info.MemAddr)
		if err != nil {
			return err
		}
		setReg(in.Rt, w)
	case mips.SB:
		info.MemAddr = rs + uint32(in.Imm)
		m.wroteText(info.MemAddr, 1)
		if err := m.Mem.StoreByte(info.MemAddr, byte(rt)); err != nil {
			return err
		}
	case mips.SH:
		info.MemAddr = rs + uint32(in.Imm)
		m.wroteText(info.MemAddr, 2)
		if err := m.Mem.StoreHalf(info.MemAddr, uint16(rt)); err != nil {
			return err
		}
	case mips.SW:
		info.MemAddr = rs + uint32(in.Imm)
		m.wroteText(info.MemAddr, 4)
		if err := m.Mem.StoreWord(info.MemAddr, rt); err != nil {
			return err
		}
	default:
		return fmt.Errorf("mipsi: invalid instruction %#x at %#x", in.Raw, pc)
	}

	m.PC = next
	m.Steps++
	return nil
}

// syscall services a trap.  Payload sizes are reported in info for
// instrumentation.
func (m *Machine) syscall(info *StepInfo) error {
	num := m.Regs[mips.RegV0]
	a0, a1, a2 := m.Regs[mips.RegA0], m.Regs[mips.RegA1], m.Regs[mips.RegA2]
	info.SyscallNum = num
	switch num {
	case SysExit:
		m.exited = true
		m.ExitCode = a0
	case SysRead:
		b, err := m.OS.Read(int(a0), int(a2))
		if err != nil {
			m.Regs[mips.RegV0] = ^uint32(0)
			return nil
		}
		m.wroteText(a1, len(b))
		if err := m.Mem.WriteBytes(a1, b); err != nil {
			return err
		}
		m.Regs[mips.RegV0] = uint32(len(b))
		info.SyscallBytes = len(b)
	case SysWrite:
		b, err := m.Mem.ReadBytes(a1, int(a2))
		if err != nil {
			return err
		}
		n, err := m.OS.Write(int(a0), b)
		if err != nil {
			m.Regs[mips.RegV0] = ^uint32(0)
			return nil
		}
		m.Regs[mips.RegV0] = uint32(n)
		info.SyscallBytes = n
	case SysOpen:
		path, err := m.Mem.ReadCString(a0)
		if err != nil {
			return err
		}
		fd, err := m.OS.Open(path, a1 != 0)
		if err != nil {
			m.Regs[mips.RegV0] = ^uint32(0)
			return nil
		}
		m.Regs[mips.RegV0] = uint32(fd)
	case SysClose:
		if err := m.OS.Close(int(a0)); err != nil {
			m.Regs[mips.RegV0] = ^uint32(0)
			return nil
		}
		m.Regs[mips.RegV0] = 0
	case SysSbrk:
		old := m.brk
		m.brk += a0
		m.Regs[mips.RegV0] = old
	default:
		return fmt.Errorf("mipsi: unknown syscall %d at %#x", num, info.PC)
	}
	return nil
}
