package asm

import (
	"strings"
	"testing"

	"interplab/internal/mips"
)

func mustAssemble(t *testing.T, src string) *mips.Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestAssembleBasic(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:
	addiu $t0, $zero, 5
	addu  $t1, $t0, $t0
	jr $ra
	nop
`)
	if len(p.Text) != 4 {
		t.Fatalf("text words = %d, want 4", len(p.Text))
	}
	if p.Entry != mips.TextBase {
		t.Errorf("entry = %#x", p.Entry)
	}
	in := mips.Decode(p.Text[0], p.TextBase)
	if in.Op != mips.ADDIU || in.Imm != 5 || in.Rt != mips.RegT0 {
		t.Errorf("first inst decoded %+v", in)
	}
	if p.Text[3] != 0 {
		t.Errorf("nop must encode as 0, got %#x", p.Text[3])
	}
}

func TestAssembleBranchesAndLabels(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:
	li $t0, 3
loop:
	addiu $t0, $t0, -1
	bnez $t0, loop
	nop
	jr $ra
	nop
`)
	// bnez is at word index 2; target "loop" at word 1; offset relative to
	// delay slot (word 3): -2.
	in := mips.Decode(p.Text[2], p.TextBase+8)
	if in.Op != mips.BNE {
		t.Fatalf("bnez should assemble as bne, got %v", in.Op)
	}
	if got := in.BranchTarget(p.TextBase + 8); got != p.TextBase+4 {
		t.Errorf("branch target %#x, want %#x", got, p.TextBase+4)
	}
}

func TestAssembleDataAndLa(t *testing.T) {
	p := mustAssemble(t, `
	.data
msg:	.asciiz "hi\n"
nums:	.word 1, 2, -3, 0x10
tab:	.word nums, nums+8
buf:	.space 16
	.align 2
end:	.byte 1
	.text
main:
	la $t0, msg
	lw $t1, 0($t0)
	jr $ra
	nop
`)
	if string(p.Data[0:3]) != "hi\n" || p.Data[3] != 0 {
		t.Errorf("asciiz wrong: %q", p.Data[:4])
	}
	numsAddr := p.Symbols["nums"]
	if numsAddr != mips.DataBase+4 {
		t.Errorf("nums addr = %#x", numsAddr)
	}
	// .word -3 little-endian at nums+8.
	off := numsAddr - mips.DataBase + 8
	if p.Data[off] != 0xfd || p.Data[off+3] != 0xff {
		t.Errorf(".word -3 encoded wrong: % x", p.Data[off:off+4])
	}
	// Label reference in .word: tab[1] == nums+8.
	tabOff := p.Symbols["tab"] - mips.DataBase
	got := uint32(p.Data[tabOff+4]) | uint32(p.Data[tabOff+5])<<8 | uint32(p.Data[tabOff+6])<<16 | uint32(p.Data[tabOff+7])<<24
	if got != numsAddr+8 {
		t.Errorf("tab[1] = %#x, want %#x", got, numsAddr+8)
	}
	// la expands to lui+ori of the symbol address.
	in0 := mips.Decode(p.Text[0], 0)
	in1 := mips.Decode(p.Text[1], 0)
	if in0.Op != mips.LUI || in1.Op != mips.ORI {
		t.Fatalf("la expansion wrong: %v %v", in0.Op, in1.Op)
	}
	msg := p.Symbols["msg"]
	if uint32(in0.Imm)<<16|uint32(in1.Imm) != msg {
		t.Errorf("la value = %#x, want %#x", uint32(in0.Imm)<<16|uint32(in1.Imm), msg)
	}
}

func TestAssembleLiWide(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:	li $t0, 0x12345678
	li $t1, 7
	li $t2, -7
	li $t3, 0x9000
`)
	if len(p.Text) != 5 {
		t.Fatalf("expected 5 words (2+1+1+1), got %d", len(p.Text))
	}
	if in := mips.Decode(p.Text[0], 0); in.Op != mips.LUI || uint32(in.Imm) != 0x1234 {
		t.Errorf("wide li upper wrong: %+v", in)
	}
	if in := mips.Decode(p.Text[4], 0); in.Op != mips.ORI || in.Imm != 0x9000 {
		t.Errorf("0x9000 should be single ori: %+v", in)
	}
}

func TestAssemblePseudoCompare(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:
	blt $t0, $t1, out
	nop
	bge $t0, $t1, out
	nop
	bgt $t0, $t1, out
	nop
	ble $t0, $t1, out
	nop
out:	jr $ra
	nop
`)
	// Each pseudo-compare expands to slt+branch.
	if len(p.Text) != 4*3+2 {
		t.Fatalf("text words = %d, want 14", len(p.Text))
	}
	in := mips.Decode(p.Text[0], 0)
	if in.Op != mips.SLT || in.Rd != mips.RegAT {
		t.Errorf("blt must start with slt $at: %+v", in)
	}
	if in := mips.Decode(p.Text[1], 0); in.Op != mips.BNE {
		t.Errorf("blt branch must be bne, got %v", in.Op)
	}
	if in := mips.Decode(p.Text[4], 0); in.Op != mips.BEQ {
		t.Errorf("bge branch must be beq, got %v", in.Op)
	}
	// bgt swaps operands: slt $at, $t1, $t0.
	if in := mips.Decode(p.Text[6], 0); in.Rs != mips.RegT0+1 {
		t.Errorf("bgt must swap operands: %+v", in)
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:
	lw $t0, 8($sp)
	sw $t0, ($sp)
	lb $t1, -1($t0)
`)
	in := mips.Decode(p.Text[0], 0)
	if in.Op != mips.LW || in.Imm != 8 || in.Rs != mips.RegSP {
		t.Errorf("lw decoded %+v", in)
	}
	in = mips.Decode(p.Text[1], 0)
	if in.Op != mips.SW || in.Imm != 0 {
		t.Errorf("sw decoded %+v", in)
	}
	in = mips.Decode(p.Text[2], 0)
	if in.Op != mips.LB || in.Imm != -1 {
		t.Errorf("lb decoded %+v", in)
	}
}

func TestAssembleMulPseudo(t *testing.T) {
	p := mustAssemble(t, `
	.text
main:	mul $t0, $t1, $t2
`)
	if len(p.Text) != 2 {
		t.Fatalf("mul must expand to mult+mflo")
	}
	if in := mips.Decode(p.Text[0], 0); in.Op != mips.MULT {
		t.Errorf("first %v", in.Op)
	}
	if in := mips.Decode(p.Text[1], 0); in.Op != mips.MFLO || in.Rd != mips.RegT0 {
		t.Errorf("second %+v", in)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{".text\n\tbogus $t0", "unknown mnemonic"},
		{".text\n\tj nowhere", "undefined symbol"},
		{".text\nx:\nx:\n", "duplicate label"},
		{".quux 3", "unknown directive"},
		{".data\n\t.word zz,", "undefined symbol"},
		{".text\n\taddiu $t0, $t9, 99999", "out of"},
		{".data\n\t.space 1000000000000", "data segment over"},
		{".data\n\t.space 9000000\n\t.space 9000000", "data segment over"},
		{"\taddiu $t0, $zero, 1", ""}, // default section is .text: fine
	}
	for _, c := range cases {
		_, err := Assemble("t", c.src)
		if c.frag == "" {
			if err != nil {
				t.Errorf("src %q: unexpected error %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("src %q: error = %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestAssembleEntrySymbol(t *testing.T) {
	p := mustAssemble(t, `
	.text
helper:	jr $ra
	nop
main:	jr $ra
	nop
`)
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry should be main: %#x vs %#x", p.Entry, p.Symbols["main"])
	}
	p2 := mustAssemble(t, ".text\n_start:\n\tnop\n")
	if p2.Entry != p2.Symbols["_start"] {
		t.Error("entry should fall back to _start")
	}
}

func TestAssembleCommentsAndChars(t *testing.T) {
	p := mustAssemble(t, `
	# full-line comment
	.text
main:	li $t0, 'A'    # trailing comment
	li $t1, '\n'
`)
	if in := mips.Decode(p.Text[0], 0); in.Imm != 'A' {
		t.Errorf("char literal = %d", in.Imm)
	}
	if in := mips.Decode(p.Text[1], 0); in.Imm != '\n' {
		t.Errorf("escaped char literal = %d", in.Imm)
	}
}
