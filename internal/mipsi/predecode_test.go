package mipsi

import (
	"fmt"
	"reflect"
	"testing"

	"interplab/internal/atom"
	"interplab/internal/mips"
	"interplab/internal/trace"
	"interplab/internal/vfs"
)

// refStep is the reference the decode table is checked against: it
// fetches the word at the PC from guest memory and decodes it on every
// step, then executes it.
func refStep(m *Machine, info *StepInfo) (mips.Inst, error) {
	if m.exited {
		return mips.Inst{}, ErrExited
	}
	pc := m.PC
	word, err := m.Mem.LoadWord(pc)
	if err != nil {
		return mips.Inst{}, fmt.Errorf("mipsi: fetch at %#x: %w", pc, err)
	}
	in := mips.Decode(word, pc)
	return in, m.Exec(pc, &in, info)
}

// refDestReg is the register an instruction writes, or 0, worked out from
// the instruction alone.
func refDestReg(in mips.Inst) int {
	switch in.Op.Class() {
	case mips.ClassALU, mips.ClassShift:
		switch in.Op {
		case mips.ADDI, mips.ADDIU, mips.SLTI, mips.SLTIU,
			mips.ANDI, mips.ORI, mips.XORI, mips.LUI:
			return in.Rt
		}
		return in.Rd
	case mips.ClassLoad:
		return in.Rt
	case mips.ClassJump:
		if in.Op == mips.JAL {
			return mips.RegRA
		}
		if in.Op == mips.JALR {
			return in.Rd
		}
	}
	return 0
}

// refNativeStep is Native.Step with no decode table: it steps through
// refStep and classifies the instruction's event from scratch each time.
func refNativeStep(n *Native) error {
	pc := n.M.PC
	var info StepInfo
	in, err := refStep(n.M, &info)
	if err != nil {
		return err
	}
	e := trace.Event{PC: pc}
	if n.prevDest != 0 && (in.Rs == n.prevDest || in.Rt == n.prevDest) {
		e.Flags |= trace.FlagDep
	}
	n.prevDest = refDestReg(in)
	switch in.Op.Class() {
	case mips.ClassALU:
		e.Kind = trace.Int
	case mips.ClassShift:
		e.Kind = trace.ShortInt
	case mips.ClassMulDiv:
		e.Kind = trace.Mul
	case mips.ClassLoad:
		e.Kind, e.Addr = trace.Load, info.MemAddr
	case mips.ClassStore:
		e.Kind, e.Addr = trace.Store, info.MemAddr
	case mips.ClassBranch:
		e.Kind, e.Addr = trace.Branch, info.Target
		if info.Taken {
			e.Flags |= trace.FlagTaken
		}
	case mips.ClassJump:
		e.Kind, e.Addr = trace.Jump, info.Target
		switch {
		case in.Op == mips.JAL || in.Op == mips.JALR:
			e.Flags |= trace.FlagCall
		case in.Op == mips.JR && in.Rs == mips.RegRA:
			e.Kind = trace.Return
		}
	case mips.ClassSyscall:
		e.Kind, e.Addr = trace.Jump, kernelBase
		e.Flags |= trace.FlagCall
	}
	n.emit(e)
	if in.Op.Class() == mips.ClassSyscall {
		n.kernel(&info)
	}
	return nil
}

// staleAll marks every decode-table word stale, so the machine's next
// fetches decode from memory: an Interp stepped this way is the reference
// for one stepped through the table.
func staleAll(m *Machine) {
	for i := range m.text {
		m.text[i].stale = true
	}
}

// sameErr reports whether two steps failed alike.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// memDiff describes the first difference between two address spaces.
func memDiff(a, b *Memory) string {
	for i1 := range a.root {
		la, lb := a.root[i1], b.root[i1]
		if (la == nil) != (lb == nil) {
			return fmt.Sprintf("level-2 table %d mapped in only one", i1)
		}
		if la == nil {
			continue
		}
		for i2 := range la {
			pa, pb := la[i2], lb[i2]
			if (pa == nil) != (pb == nil) {
				return fmt.Sprintf("page %#x mapped in only one", uint32(i1)<<22|uint32(i2)<<pageBits)
			}
			if pa != nil && *pa != *pb {
				return fmt.Sprintf("page %#x differs", uint32(i1)<<22|uint32(i2)<<pageBits)
			}
		}
	}
	return ""
}

// stateDiff describes the first difference in architectural state.
func stateDiff(a, b *Machine) string {
	switch {
	case a.Regs != b.Regs:
		return fmt.Sprintf("registers %v, reference %v", a.Regs, b.Regs)
	case a.PC != b.PC:
		return fmt.Sprintf("pc %#x, reference %#x", a.PC, b.PC)
	case a.Hi != b.Hi || a.Lo != b.Lo:
		return fmt.Sprintf("hi/lo %#x/%#x, reference %#x/%#x", a.Hi, a.Lo, b.Hi, b.Lo)
	case a.Steps != b.Steps || a.exited != b.exited || a.ExitCode != b.ExitCode:
		return fmt.Sprintf("steps/exit %d/%v/%d, reference %d/%v/%d",
			a.Steps, a.exited, a.ExitCode, b.Steps, b.exited, b.ExitCode)
	case a.delayActive != b.delayActive || a.delayTarget != b.delayTarget || a.brk != b.brk:
		return "delay slot or break differs"
	case a.OS.Stdout.String() != b.OS.Stdout.String():
		return fmt.Sprintf("stdout %q, reference %q", a.OS.Stdout.String(), b.OS.Stdout.String())
	}
	return ""
}

// eventsDiff compares the events recorded since from and describes the
// first difference.
func eventsDiff(a, b []trace.Event, from int) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d events, reference %d", len(a), len(b))
	}
	for i := from; i < len(a); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d is %+v, reference %+v", i, a[i], b[i])
		}
	}
	return ""
}

// checkMachine steps prog through the decode table and through refStep in
// lockstep, comparing errors, StepInfo, architectural state and, after
// every store or trap, memory.
func checkMachine(t *testing.T, prog *mips.Program, newOS func() *vfs.OS, maxSteps int) {
	t.Helper()
	a, err := NewMachine(prog, newOS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(prog, newOS())
	if err != nil {
		t.Fatal(err)
	}
	var ia, ib StepInfo
	for i := 0; i < maxSteps; i++ {
		ea := a.Step(&ia)
		in, eb := refStep(b, &ib)
		if !sameErr(ea, eb) {
			t.Fatalf("machine step %d: error %v, reference %v", i, ea, eb)
		}
		if ia != ib {
			t.Fatalf("machine step %d: %+v, reference %+v", i, ia, ib)
		}
		if d := stateDiff(a, b); d != "" {
			t.Fatalf("machine step %d: %s", i, d)
		}
		if c := in.Op.Class(); c == mips.ClassStore || c == mips.ClassSyscall {
			if d := memDiff(a.Mem, b.Mem); d != "" {
				t.Fatalf("machine step %d (%v): memory: %s", i, in.Op, d)
			}
		}
		if ea != nil {
			return
		}
	}
}

// checkNative runs prog in the compiled-C mode and through refNativeStep
// in lockstep, comparing errors, state and the emitted streams.
func checkNative(t *testing.T, prog *mips.Program, newOS func() *vfs.OS, maxSteps int) {
	t.Helper()
	var recA, recB trace.Recorder
	a, err := NewNative(prog, newOS(), &recA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNative(prog, newOS(), &recB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxSteps; i++ {
		from := len(recA.Events)
		ea, eb := a.Step(), refNativeStep(b)
		a.Flush()
		b.Flush()
		if !sameErr(ea, eb) {
			t.Fatalf("native step %d: error %v, reference %v", i, ea, eb)
		}
		if d := stateDiff(a.M, b.M); d != "" {
			t.Fatalf("native step %d: %s", i, d)
		}
		if d := eventsDiff(recA.Events, recB.Events, from); d != "" {
			t.Fatalf("native step %d: %s", i, d)
		}
		if *a.Tally != *b.Tally {
			t.Fatalf("native step %d: tally %+v, reference %+v", i, *a.Tally, *b.Tally)
		}
		if ea != nil {
			return
		}
	}
}

// checkInterp runs prog under MIPSI twice in lockstep, one stepping
// through the decode table and one decoding every fetch from memory
// (staleAll), comparing errors, state, the probes' streams and, at the
// end, their books.
func checkInterp(t *testing.T, prog *mips.Program, newOS func() *vfs.OS, maxSteps int, super bool) {
	t.Helper()
	load := func() (*Interp, *trace.Recorder) {
		rec := new(trace.Recorder)
		img := atom.NewImage()
		p := atom.NewProbe(img, rec)
		osys := newOS()
		osys.Instrument(img, p)
		ip, err := New(prog, osys, img, p)
		if err != nil {
			t.Fatal(err)
		}
		ip.Superinstructions = super
		return ip, rec
	}
	a, recA := load()
	b, recB := load()
	for i := 0; i < maxSteps; i++ {
		from := len(recA.Events)
		ea := a.Step()
		staleAll(b.M)
		eb := b.Step()
		a.p.FlushEvents()
		b.p.FlushEvents()
		if !sameErr(ea, eb) {
			t.Fatalf("interp (super %v) step %d: error %v, reference %v", super, i, ea, eb)
		}
		if d := stateDiff(a.M, b.M); d != "" {
			t.Fatalf("interp (super %v) step %d: %s", super, i, d)
		}
		if d := eventsDiff(recA.Events, recB.Events, from); d != "" {
			t.Fatalf("interp (super %v) step %d: %s", super, i, d)
		}
		if ea != nil {
			break
		}
	}
	if a.FusedSites != b.FusedSites {
		t.Fatalf("interp (super %v): %d fused sites, reference %d", super, a.FusedSites, b.FusedSites)
	}
	if sa, sb := a.p.Stats(), b.p.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("interp (super %v): stats %+v, reference %+v", super, sa, sb)
	}
}

// checkAll runs every lockstep comparison on prog.
func checkAll(t *testing.T, prog *mips.Program, newOS func() *vfs.OS, maxSteps int) {
	t.Helper()
	checkMachine(t, prog, newOS, maxSteps)
	checkNative(t, prog, newOS, maxSteps)
	checkInterp(t, prog, newOS, maxSteps, false)
	checkInterp(t, prog, newOS, maxSteps, true)
}

// TestSelfModifyingText runs programs that write their own text, by store
// and by the read syscall: every mode must execute the word memory holds
// when the PC reaches it, exactly as a fetch from memory would.
func TestSelfModifyingText(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		want   uint32
		atZero bool // load the text at address 0
	}{
		{"store-ahead", `
	.text
main:
	la $t0, patch
	la $t1, repl
	lw $t2, 0($t1)
	sw $t2, 0($t0)
patch:
	li $a0, 1
	li $v0, 1
	syscall
	nop
repl:
	li $a0, 42
`, 42, false},
		{"store-over-itself", `
	.text
main:
	li $s0, 0
	li $s1, 2
	la $t0, self
	la $t1, repl
	lw $t2, 0($t1)
loop:
self:
	sw $t2, 0($t0)        # the first pass overwrites this very word
	addiu $s0, $s0, 1
	addiu $s1, $s1, -1
	bgtz $s1, loop
	nop
	move $a0, $s0         # 1 + 100 + 1
	li $v0, 1
	syscall
	nop
repl:
	addiu $s0, $s0, 100
`, 102, false},
		{"byte-and-half", `
	.text
main:
	la $t0, patch
	li $t1, 9
	sb $t1, 0($t0)        # li $a0, 1 -> li $a0, 9
	li $t1, 1
	sb $t1, 1($t0)        # -> li $a0, 0x109
	li $t1, 300
	sh $t1, 4($t0)        # addiu $a0, $a0, 1 -> addiu $a0, $a0, 300
patch:
	li $a0, 1
	addiu $a0, $a0, 1
	li $v0, 1
	syscall
	nop
`, 0x109 + 300, false},
		{"fused-pair-second-half", `
	.text
main:
	li $s0, 5
	la $t0, pair
	la $t1, repl
	lw $t2, 0($t1)
pair:
	sw $t2, 4($t0)        # overwrites the next word, the pair's second half
	sw $zero, 0($t1)
	move $a0, $s0
	li $v0, 1
	syscall
	nop
repl:
	addiu $s0, $s0, 100
`, 105, false},
		{"read-syscall", `
	.data
path:	.asciiz "code"
	.text
main:
	la $a0, path
	li $a1, 0
	li $v0, 5
	syscall
	nop
	move $a0, $v0
	la $a1, patch
	li $a2, 4
	li $v0, 3
	syscall
	nop
patch:
	li $a0, 1
	li $v0, 1
	syscall
	nop
`, 7, false},
		{"store-wrapping-into-text", `
	.text
main:
	li $a0, 1             # the second pass runs li $a0, 77
	bne $s0, $zero, done
	nop
	li $s0, 1
	li $t1, 77
	sll $t1, $t1, 16
	sw $t1, -2($zero)     # bytes 0xfffffffe..0x1: the last two are text
	b main
	nop
done:
	li $v0, 1
	syscall
	nop
`, 77, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := assemble(t, tc.src)
			if tc.atZero {
				prog.TextBase, prog.Entry = 0, 0
			}
			code, err := mips.EncodeI(mips.ADDIU, mips.RegA0, 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			newOS := func() *vfs.OS {
				osys := vfs.New()
				osys.AddFile("code", []byte{byte(code), byte(code >> 8), byte(code >> 16), byte(code >> 24)})
				return osys
			}
			m, err := NewMachine(prog, newOS())
			if err != nil {
				t.Fatal(err)
			}
			var info StepInfo
			for !m.Exited() {
				if err := m.Step(&info); err != nil {
					t.Fatal(err)
				}
			}
			if m.ExitCode != tc.want {
				t.Errorf("machine exit = %d, want %d", m.ExitCode, tc.want)
			}
			nat, err := NewNative(prog, newOS(), trace.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := nat.Run(1000); err != nil || nat.M.ExitCode != tc.want {
				t.Errorf("native exit = %d (%v), want %d", nat.M.ExitCode, err, tc.want)
			}
			for _, super := range []bool{false, true} {
				img := atom.NewImage()
				p := atom.NewProbe(img, trace.Discard)
				osys := newOS()
				osys.Instrument(img, p)
				ip, err := New(prog, osys, img, p)
				if err != nil {
					t.Fatal(err)
				}
				ip.Superinstructions = super
				if err := ip.Run(1000); err != nil || ip.M.ExitCode != tc.want {
					t.Errorf("interp (super %v) exit = %d (%v), want %d", super, ip.M.ExitCode, err, tc.want)
				}
			}
			checkAll(t, prog, newOS, 1000)
		})
	}
}

// The generated programs' registers: the ones they write, and the ones
// they read (those, $zero, and the text and data bases in $s0 and $s1).
var (
	fuzzDst = []int{2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 31}
	fuzzSrc = []int{0, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31}
)

const (
	fuzzMaxBody  = 64  // text words generated before the exit epilogue
	fuzzMaxSteps = 500 // steps each run may take
	fuzzFile     = "t" // the file the read template opens; its name leads the data
)

// genText turns fuzz input into a small program, four bytes per template:
// byte 0 picks the template, bytes 1 to 3 its operands.  Branches and
// jumps target the program's own words, loads and stores address its text
// ($s0) or data ($s1), and one template reads the program's text bytes
// from a file into its own text.  It returns the program and the file's
// contents.
func genText(in []byte) (*mips.Program, []byte) {
	var text []uint32
	emit := func(w uint32, err error) {
		if err == nil {
			text = append(text, w)
		}
	}
	type fix struct {
		at     int
		target byte
	}
	var fixes []fix
	src := func(b byte) int { return fuzzSrc[int(b)%len(fuzzSrc)] }
	dst := func(b byte) int { return fuzzDst[int(b)%len(fuzzDst)] }
	// memRef picks a base register and an offset for a w-byte access:
	// text or data, aligned unless bit 1 of b asks otherwise.
	memRef := func(b, off byte, w int32) (int, int32) {
		o := int32(off)
		if b&2 == 0 {
			o &^= w - 1
		}
		if b&1 == 0 {
			return 16, o
		}
		return 17, o
	}
	li := func(r int, v int32) { emit(mips.EncodeI(mips.ADDIU, r, 0, v)) }

	emit(mips.EncodeI(mips.LUI, 16, 0, int32(mips.TextBase>>16)))
	emit(mips.EncodeI(mips.LUI, 17, 0, int32(mips.DataBase>>16)))
	for len(in) >= 4 && len(text) < fuzzMaxBody {
		b0, b1, b2, b3 := in[0], in[1], in[2], in[3]
		in = in[4:]
		sel := int(b0 / 12)
		switch b0 % 12 {
		case 0:
			ops := []mips.Op{mips.ADDU, mips.SUBU, mips.AND, mips.OR, mips.XOR, mips.NOR,
				mips.SLT, mips.SLTU, mips.ADD, mips.SUB, mips.SLLV, mips.SRLV, mips.SRAV}
			emit(mips.EncodeR(ops[sel%len(ops)], dst(b1), src(b2), src(b3), 0))
		case 1:
			ops := []mips.Op{mips.SLL, mips.SRL, mips.SRA}
			emit(mips.EncodeR(ops[sel%len(ops)], dst(b1), 0, src(b2), int(b3&31)))
		case 2:
			ops := []mips.Op{mips.ADDIU, mips.ADDI, mips.SLTI, mips.SLTIU, mips.ANDI, mips.ORI, mips.XORI, mips.LUI}
			o := ops[sel%len(ops)]
			imm := int32(int8(b3))
			if o == mips.ANDI || o == mips.ORI || o == mips.XORI || o == mips.LUI {
				imm = int32(b3)
			}
			emit(mips.EncodeI(o, dst(b1), src(b2), imm))
		case 3:
			switch sel % 3 {
			case 0:
				ops := []mips.Op{mips.MULT, mips.MULTU, mips.DIV, mips.DIVU}
				emit(mips.EncodeR(ops[int(b1)%len(ops)], 0, src(b2), src(b3), 0))
			case 1:
				ops := []mips.Op{mips.MFHI, mips.MFLO}
				emit(mips.EncodeR(ops[int(b1)%len(ops)], dst(b2), 0, 0, 0))
			default:
				ops := []mips.Op{mips.MTHI, mips.MTLO}
				emit(mips.EncodeR(ops[int(b1)%len(ops)], 0, src(b2), 0, 0))
			}
		case 4:
			ops := []mips.Op{mips.LB, mips.LBU, mips.LH, mips.LHU, mips.LW}
			o := ops[sel%len(ops)]
			base, off := memRef(b2, b3, int32(o.MemBytes()))
			emit(mips.EncodeI(o, dst(b1), base, off))
		case 5:
			ops := []mips.Op{mips.SB, mips.SH, mips.SW}
			o := ops[sel%len(ops)]
			base, off := memRef(b2, b3, int32(o.MemBytes()))
			emit(mips.EncodeI(o, src(b1), base, off))
		case 6: // copy one text word over another
			emit(mips.EncodeI(mips.LW, 15, 16, int32(b2)*4))
			emit(mips.EncodeI(mips.SW, 15, 16, int32(b3)*4))
		case 7:
			ops := []mips.Op{mips.BEQ, mips.BNE, mips.BLEZ, mips.BGTZ, mips.BLTZ, mips.BGEZ}
			o := ops[sel%len(ops)]
			rt := src(b2)
			if o != mips.BEQ && o != mips.BNE {
				rt = 0
			}
			fixes = append(fixes, fix{len(text), b3})
			emit(mips.EncodeI(o, rt, src(b1), 0))
		case 8:
			switch b1 % 4 {
			case 0:
				fixes = append(fixes, fix{len(text), b3})
				emit(mips.EncodeJ(mips.J, 0))
			case 1:
				fixes = append(fixes, fix{len(text), b3})
				emit(mips.EncodeJ(mips.JAL, 0))
			case 2:
				emit(mips.EncodeR(mips.JR, 0, src(b2), 0, 0))
			default:
				emit(mips.EncodeR(mips.JALR, dst(b3), src(b2), 0, 0))
			}
		case 9:
			switch b1 % 5 {
			case 0: // exit
				li(mips.RegV0, SysExit)
			case 1: // write part of the text to stdout
				li(mips.RegV0, SysWrite)
				li(mips.RegA0, 1)
				emit(mips.EncodeI(mips.ADDIU, mips.RegA1, 16, int32(b2)))
				li(mips.RegA2, int32(b3%32))
			case 2: // read the file into the text
				li(mips.RegV0, SysOpen)
				emit(mips.EncodeR(mips.OR, mips.RegA0, 17, 0, 0))
				li(mips.RegA1, 0)
				emit(mips.EncodeR(mips.SYSCALL, 0, 0, 0, 0))
				emit(mips.EncodeR(mips.OR, mips.RegA0, mips.RegV0, 0, 0))
				emit(mips.EncodeI(mips.ADDIU, mips.RegA1, 16, int32(b2)))
				li(mips.RegA2, int32(b3))
				li(mips.RegV0, SysRead)
			case 3:
				li(mips.RegV0, SysSbrk)
				li(mips.RegA0, int32(b3))
			}
			emit(mips.EncodeR(mips.SYSCALL, 0, 0, 0, 0))
		case 10: // any word at all
			text = append(text, uint32(b0)<<24|uint32(b1)<<16|uint32(b2)<<8|uint32(b3))
		default:
			text = append(text, 0) // nop
		}
	}
	li(mips.RegV0, SysExit)
	emit(mips.EncodeR(mips.SYSCALL, 0, 0, 0, 0))

	for _, f := range fixes {
		target := int(f.target) % len(text)
		if mips.Decode(text[f.at], 0).Op.Class() == mips.ClassBranch {
			text[f.at] |= uint32(uint16(int16(target - f.at - 1)))
		} else {
			text[f.at] |= (mips.TextBase/4 + uint32(target)) & 0x03ff_ffff
		}
	}
	file := make([]byte, 0, 4*len(text))
	for _, w := range text {
		file = append(file, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	data := append([]byte(fuzzFile+"\x00"), make([]byte, 256)...)
	return &mips.Program{
		Name:     "fuzz",
		TextBase: mips.TextBase,
		Text:     text,
		DataBase: mips.DataBase,
		Data:     data,
		Entry:    mips.TextBase,
		Symbols:  map[string]uint32{},
	}, file
}

// FuzzPredecode checks the decode table against fetching and decoding
// every word from memory, on generated programs that branch, jump, leave
// their text, and write their own text by store and by read syscall.
func FuzzPredecode(f *testing.F) {
	quads := func(q ...[4]byte) []byte {
		var b []byte
		for _, x := range q {
			b = append(b, x[:]...)
		}
		return b
	}
	f.Add([]byte{})
	// A counted loop that copies a text word over the loop body.
	f.Add(quads([4]byte{2, 1, 0, 3}, [4]byte{6, 0, 2, 5}, [4]byte{2 + 12*0, 1, 1, 0xff},
		[4]byte{7 + 12*3, 1, 0, 3}, [4]byte{11, 0, 0, 0}))
	// A read of the program's own text over its first words, then a
	// branch back into them.
	f.Add(quads([4]byte{9, 2, 8, 24}, [4]byte{7, 0, 0, 4}, [4]byte{11, 0, 0, 0}))
	// Stores of every width into text, aligned and not.
	f.Add(quads([4]byte{2, 4, 0, 9}, [4]byte{5, 4, 0, 20}, [4]byte{5 + 12, 4, 2, 23},
		[4]byte{5 + 24, 4, 2, 26}, [4]byte{7, 0, 0, 1}))
	// A jump through a register into the data segment, and a call.
	f.Add(quads([4]byte{8, 2, 13, 0}, [4]byte{8, 1, 0, 0}, [4]byte{8, 2, 15, 0}))
	// A call to a jr $ra that returns to an exit.
	f.Add(quads([4]byte{8, 1, 0, 6}, [4]byte{11, 0, 0, 0}, [4]byte{9, 0, 0, 0},
		[4]byte{8, 2, 15, 0}, [4]byte{11, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, in []byte) {
		prog, file := genText(in)
		newOS := func() *vfs.OS {
			osys := vfs.New()
			osys.AddFile(fuzzFile, file)
			return osys
		}
		checkAll(t, prog, newOS, fuzzMaxSteps)
	})
}
