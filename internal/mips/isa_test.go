package mips

import (
	"testing"
	"testing/quick"
)

func TestOpNames(t *testing.T) {
	if SLL.String() != "sll" || SW.String() != "sw" || SYSCALL.String() != "syscall" {
		t.Error("mnemonic names wrong")
	}
	if OpByName("addu") != ADDU || OpByName("nosuch") != INVALID {
		t.Error("OpByName wrong")
	}
	if Op(200).String() != "invalid" {
		t.Error("out-of-range op must stringify as invalid")
	}
}

func TestOpClasses(t *testing.T) {
	cases := map[Op]Class{
		ADDU: ClassALU, SLL: ClassShift, MULT: ClassMulDiv,
		LW: ClassLoad, SB: ClassStore, BEQ: ClassBranch,
		J: ClassJump, JR: ClassJump, SYSCALL: ClassSyscall,
		BLTZ: ClassBranch, LUI: ClassALU,
	}
	for op, want := range cases {
		if got := op.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", op, got, want)
		}
	}
	if !LW.IsMemory() || !SB.IsMemory() || ADDU.IsMemory() {
		t.Error("IsMemory wrong")
	}
	if LB.MemBytes() != 1 || LH.MemBytes() != 2 || SW.MemBytes() != 4 || ADD.MemBytes() != 0 {
		t.Error("MemBytes wrong")
	}
}

func TestRegByName(t *testing.T) {
	cases := map[string]int{
		"$zero": 0, "zero": 0, "$t0": 8, "$sp": 29, "$ra": 31, "$31": 31, "5": 5,
	}
	for name, want := range cases {
		got, err := RegByName(name)
		if err != nil || got != want {
			t.Errorf("RegByName(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	for _, bad := range []string{"$t99", "bogus", "$32", ""} {
		if _, err := RegByName(bad); err == nil {
			t.Errorf("RegByName(%q) should fail", bad)
		}
	}
}

func TestEncodeDecodeRType(t *testing.T) {
	w, err := EncodeR(ADDU, 3, 4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(w, 0)
	if in.Op != ADDU || in.Rd != 3 || in.Rs != 4 || in.Rt != 5 {
		t.Errorf("decoded %+v", in)
	}
	w, err = EncodeR(SLL, 2, 0, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	in = Decode(w, 0)
	if in.Op != SLL || in.Rd != 2 || in.Rt != 7 || in.Shamt != 12 {
		t.Errorf("decoded %+v", in)
	}
	if _, err := EncodeR(ADDI, 0, 0, 0, 0); err == nil {
		t.Error("ADDI must not encode as R-type")
	}
}

func TestEncodeDecodeIType(t *testing.T) {
	w, err := EncodeI(ADDIU, 8, 9, -5)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(w, 0)
	if in.Op != ADDIU || in.Rt != 8 || in.Rs != 9 || in.Imm != -5 {
		t.Errorf("decoded %+v", in)
	}
	// Zero-extended immediates.
	w, err = EncodeI(ORI, 8, 9, 0xffff)
	if err != nil {
		t.Fatal(err)
	}
	in = Decode(w, 0)
	if in.Imm != 0xffff {
		t.Errorf("ori imm = %d, want 65535", in.Imm)
	}
	if _, err := EncodeI(ADDIU, 0, 0, 40000); err == nil {
		t.Error("signed overflow must fail")
	}
	if _, err := EncodeI(ORI, 0, 0, -1); err == nil {
		t.Error("negative unsigned must fail")
	}
}

func TestEncodeDecodeRegimm(t *testing.T) {
	w, err := EncodeI(BLTZ, 0, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(w, 0x400000)
	if in.Op != BLTZ || in.Rs != 4 || in.Imm != 16 {
		t.Errorf("decoded %+v", in)
	}
	if got := in.BranchTarget(0x400000); got != 0x400000+4+16*4 {
		t.Errorf("branch target %#x", got)
	}
	w, _ = EncodeI(BGEZ, 0, 4, -2)
	in = Decode(w, 0)
	if in.Op != BGEZ || in.Imm != -2 {
		t.Errorf("decoded %+v", in)
	}
}

func TestEncodeDecodeJType(t *testing.T) {
	w, err := EncodeJ(JAL, 0x0040_0040)
	if err != nil {
		t.Fatal(err)
	}
	in := Decode(w, 0x0040_0000)
	if in.Op != JAL || in.Target != 0x0040_0040 {
		t.Errorf("decoded %+v", in)
	}
	if _, err := EncodeJ(ADDU, 0); err == nil {
		t.Error("ADDU must not encode as J-type")
	}
}

func TestDecodeNop(t *testing.T) {
	in := Decode(0, 0)
	if in.Op != SLL || !in.IsNop() {
		t.Errorf("word 0 must decode as the canonical sll nop: %+v", in)
	}
	if in.Disassemble(0) != "nop" {
		t.Errorf("nop disassembly = %q", in.Disassemble(0))
	}
}

func TestDecodeInvalid(t *testing.T) {
	// Opcode 0x3f is unused in our subset.
	in := Decode(0xfc00_0000, 0)
	if in.Op != INVALID {
		t.Errorf("expected INVALID, got %v", in.Op)
	}
}

// TestDecodeTablesExhaustive decodes every funct code under SPECIAL and
// every other primary opcode, against the opcode maps the tables
// replaced: a defined code decodes to its Op, every other code to
// INVALID, and the encoders map each defined Op back to its code.
func TestDecodeTablesExhaustive(t *testing.T) {
	functs := map[uint32]Op{
		0: SLL, 2: SRL, 3: SRA, 4: SLLV, 6: SRLV, 7: SRAV,
		8: JR, 9: JALR, 12: SYSCALL, 13: BREAK,
		16: MFHI, 17: MTHI, 18: MFLO, 19: MTLO,
		24: MULT, 25: MULTU, 26: DIV, 27: DIVU,
		32: ADD, 33: ADDU, 34: SUB, 35: SUBU,
		36: AND, 37: OR, 38: XOR, 39: NOR, 42: SLT, 43: SLTU,
	}
	primaries := map[uint32]Op{
		opJ: J, opJAL: JAL, opBEQ: BEQ, opBNE: BNE, opBLEZ: BLEZ, opBGTZ: BGTZ,
		opADDI: ADDI, opADDIU: ADDIU, opSLTI: SLTI, opSLTIU: SLTIU,
		opANDI: ANDI, opORI: ORI, opXORI: XORI, opLUI: LUI,
		opLB: LB, opLH: LH, opLW: LW, opLBU: LBU, opLHU: LHU,
		opSB: SB, opSH: SH, opSW: SW,
	}
	for code := uint32(0); code < 64; code++ {
		want, ok := functs[code]
		if !ok {
			want = INVALID
		}
		if got := Decode(code, 0).Op; got != want {
			t.Errorf("funct %d decodes to %v, want %v", code, got, want)
		}
		if ok && opToFunct[want] != code {
			t.Errorf("%v encodes funct %d, want %d", want, opToFunct[want], code)
		}
		if code == opSpecial || code == opRegimm {
			continue
		}
		want, ok = primaries[code]
		if !ok {
			want = INVALID
		}
		if got := Decode(code<<26, 0).Op; got != want {
			t.Errorf("primary %d decodes to %v, want %v", code, got, want)
		}
		if ok && opToPrimary[want] != code {
			t.Errorf("%v encodes primary %d, want %d", want, opToPrimary[want], code)
		}
	}
	if len(opToFunct) != len(functs) || len(opToPrimary) != len(primaries) {
		t.Errorf("encoders hold %d funct and %d primary ops, want %d and %d",
			len(opToFunct), len(opToPrimary), len(functs), len(primaries))
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	// Property: every R-type op round-trips through encode/decode.
	rops := []Op{SLL, SRL, SRA, SLLV, SRLV, SRAV, ADD, ADDU, SUB, SUBU,
		AND, OR, XOR, NOR, SLT, SLTU, MULT, DIV, JR, JALR, MFHI, MFLO}
	f := func(rd, rs, rt, sh uint8, pick uint8) bool {
		op := rops[int(pick)%len(rops)]
		w, err := EncodeR(op, int(rd%32), int(rs%32), int(rt%32), int(sh%32))
		if err != nil {
			return false
		}
		in := Decode(w, 0)
		return in.Op == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestITypeImmediateRoundTripProperty(t *testing.T) {
	f := func(imm int16, rt, rs uint8) bool {
		w, err := EncodeI(ADDIU, int(rt%32), int(rs%32), int32(imm))
		if err != nil {
			return false
		}
		in := Decode(w, 0)
		return in.Imm == int32(imm) && in.Rt == int(rt%32) && in.Rs == int(rs%32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		make func() uint32
		pc   uint32
		want string
	}{
		{func() uint32 { w, _ := EncodeR(ADDU, 2, 4, 5, 0); return w }, 0, "addu $v0, $a0, $a1"},
		{func() uint32 { w, _ := EncodeI(LW, 8, 29, 16); return w }, 0, "lw $t0, 16($sp)"},
		{func() uint32 { w, _ := EncodeI(SW, 8, 29, -4); return w }, 0, "sw $t0, -4($sp)"},
		{func() uint32 { w, _ := EncodeJ(J, 0x400000); return w }, 0, "j 0x400000"},
		{func() uint32 { w, _ := EncodeR(SYSCALL, 0, 0, 0, 0); return w }, 0, "syscall"},
		{func() uint32 { w, _ := EncodeI(BEQ, 5, 4, 3); return w }, 0x400000, "beq $a0, $a1, 0x400010"},
	}
	for _, c := range cases {
		in := Decode(c.make(), c.pc)
		if got := in.Disassemble(c.pc); got != c.want {
			t.Errorf("disassemble = %q, want %q", got, c.want)
		}
	}
}

func TestProgramAccessors(t *testing.T) {
	p := &Program{
		TextBase: TextBase,
		Text:     []uint32{1, 2, 3},
		DataBase: DataBase,
		Data:     []byte{9, 9},
		Symbols:  map[string]uint32{"main": TextBase + 4},
	}
	if p.SizeBytes() != 14 {
		t.Errorf("size = %d, want 14", p.SizeBytes())
	}
	if p.TextEnd() != TextBase+12 || p.DataEnd() != DataBase+2 {
		t.Error("segment ends wrong")
	}
	w, err := p.FetchText(TextBase + 8)
	if err != nil || w != 3 {
		t.Errorf("FetchText = %d, %v", w, err)
	}
	if _, err := p.FetchText(TextBase + 12); err == nil {
		t.Error("fetch past end must fail")
	}
	if _, err := p.FetchText(TextBase + 2); err == nil {
		t.Error("misaligned fetch must fail")
	}
	if a, ok := p.Symbol("main"); !ok || a != TextBase+4 {
		t.Error("symbol lookup wrong")
	}
}
