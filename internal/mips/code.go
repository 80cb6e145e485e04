package mips

import "fmt"

// Primary opcode and funct fields of the R3000 encoding.
const (
	opSpecial = 0
	opRegimm  = 1
	opJ       = 2
	opJAL     = 3
	opBEQ     = 4
	opBNE     = 5
	opBLEZ    = 6
	opBGTZ    = 7
	opADDI    = 8
	opADDIU   = 9
	opSLTI    = 10
	opSLTIU   = 11
	opANDI    = 12
	opORI     = 13
	opXORI    = 14
	opLUI     = 15
	opLB      = 32
	opLH      = 33
	opLW      = 35
	opLBU     = 36
	opLHU     = 37
	opSB      = 40
	opSH      = 41
	opSW      = 43
)

// functToOp decodes the 6-bit funct field of a SPECIAL (R-type) word.
// Codes without an instruction hold INVALID, the zero Op.
var functToOp = [64]Op{
	0: SLL, 2: SRL, 3: SRA, 4: SLLV, 6: SRLV, 7: SRAV,
	8: JR, 9: JALR, 12: SYSCALL, 13: BREAK,
	16: MFHI, 17: MTHI, 18: MFLO, 19: MTLO,
	24: MULT, 25: MULTU, 26: DIV, 27: DIVU,
	32: ADD, 33: ADDU, 34: SUB, 35: SUBU,
	36: AND, 37: OR, 38: XOR, 39: NOR, 42: SLT, 43: SLTU,
}

// primaryToOp decodes the 6-bit primary opcode of a J- or I-type word;
// SPECIAL and REGIMM words decode through their secondary fields, and
// codes without an instruction hold INVALID.
var primaryToOp = [64]Op{
	opJ: J, opJAL: JAL, opBEQ: BEQ, opBNE: BNE, opBLEZ: BLEZ, opBGTZ: BGTZ,
	opADDI: ADDI, opADDIU: ADDIU, opSLTI: SLTI, opSLTIU: SLTIU,
	opANDI: ANDI, opORI: ORI, opXORI: XORI, opLUI: LUI,
	opLB: LB, opLH: LH, opLW: LW, opLBU: LBU, opLHU: LHU,
	opSB: SB, opSH: SH, opSW: SW,
}

// opToFunct and opToPrimary encode: each maps an Op back to its code.
var opToFunct, opToPrimary = invert(&functToOp), invert(&primaryToOp)

// invert maps every Op of a decoding table to its index.
func invert(t *[64]Op) map[Op]uint32 {
	m := make(map[Op]uint32)
	for code, o := range t {
		if o != INVALID {
			m[o] = uint32(code)
		}
	}
	return m
}

// zeroExtended reports whether the op's 16-bit immediate is zero-extended.
func zeroExtended(o Op) bool {
	switch o {
	case ANDI, ORI, XORI, LUI:
		return true
	}
	return false
}

// Decode decodes one instruction word at address pc (pc is needed to
// materialize absolute jump targets).
func Decode(word uint32, pc uint32) Inst {
	in := Inst{Raw: word}
	op := word >> 26
	rs := int(word >> 21 & 31)
	rt := int(word >> 16 & 31)
	rd := int(word >> 11 & 31)
	shamt := int(word >> 6 & 31)
	imm16 := word & 0xffff

	switch op {
	case opSpecial:
		o := functToOp[word&63]
		if o == INVALID {
			return Inst{Op: INVALID, Raw: word}
		}
		in.Op = o
		in.Rs, in.Rt, in.Rd, in.Shamt = rs, rt, rd, shamt
	case opRegimm:
		switch rt {
		case 0:
			in.Op = BLTZ
		case 1:
			in.Op = BGEZ
		default:
			return Inst{Op: INVALID, Raw: word}
		}
		in.Rs = rs
		in.Imm = int32(int16(imm16))
	case opJ, opJAL:
		in.Op = primaryToOp[op]
		in.Target = (pc+4)&0xf000_0000 | (word&0x03ff_ffff)<<2
	default:
		o := primaryToOp[op]
		if o == INVALID {
			return Inst{Op: INVALID, Raw: word}
		}
		in.Op = o
		in.Rs, in.Rt = rs, rt
		if zeroExtended(o) {
			in.Imm = int32(imm16)
		} else {
			in.Imm = int32(int16(imm16))
		}
	}
	return in
}

// BranchTarget returns the absolute target of a decoded conditional branch
// located at pc (offset is in words, relative to the delay slot).
func (i Inst) BranchTarget(pc uint32) uint32 {
	return pc + 4 + uint32(i.Imm)<<2
}

// EncodeR encodes an R-type instruction.
func EncodeR(o Op, rd, rs, rt, shamt int) (uint32, error) {
	funct, ok := opToFunct[o]
	if !ok {
		return 0, fmt.Errorf("mips: %v is not R-type", o)
	}
	return uint32(rs&31)<<21 | uint32(rt&31)<<16 | uint32(rd&31)<<11 | uint32(shamt&31)<<6 | funct, nil
}

// EncodeI encodes an I-type instruction with a 16-bit immediate.
func EncodeI(o Op, rt, rs int, imm int32) (uint32, error) {
	var op uint32
	switch o {
	case BLTZ:
		return 1<<26 | uint32(rs&31)<<21 | 0<<16 | uint32(uint16(imm)), nil
	case BGEZ:
		return 1<<26 | uint32(rs&31)<<21 | 1<<16 | uint32(uint16(imm)), nil
	default:
		var ok bool
		op, ok = opToPrimary[o]
		if !ok || o == J || o == JAL {
			return 0, fmt.Errorf("mips: %v is not I-type", o)
		}
	}
	if zeroExtended(o) {
		if imm < 0 || imm > 0xffff {
			return 0, fmt.Errorf("mips: immediate %d out of unsigned 16-bit range for %v", imm, o)
		}
	} else if imm < -32768 || imm > 32767 {
		return 0, fmt.Errorf("mips: immediate %d out of signed 16-bit range for %v", imm, o)
	}
	return op<<26 | uint32(rs&31)<<21 | uint32(rt&31)<<16 | uint32(uint16(imm)), nil
}

// EncodeJ encodes a J-type instruction targeting the absolute address.
func EncodeJ(o Op, target uint32) (uint32, error) {
	var op uint32
	switch o {
	case J:
		op = opJ
	case JAL:
		op = opJAL
	default:
		return 0, fmt.Errorf("mips: %v is not J-type", o)
	}
	return op<<26 | (target>>2)&0x03ff_ffff, nil
}

// Disassemble renders a decoded instruction at pc.
func (i Inst) Disassemble(pc uint32) string {
	r := func(n int) string { return "$" + RegNames[n] }
	switch i.Op {
	case INVALID:
		return fmt.Sprintf(".word %#x", i.Raw)
	case SLL, SRL, SRA:
		if i.IsNop() {
			return "nop"
		}
		return fmt.Sprintf("%v %s, %s, %d", i.Op, r(i.Rd), r(i.Rt), i.Shamt)
	case SLLV, SRLV, SRAV:
		return fmt.Sprintf("%v %s, %s, %s", i.Op, r(i.Rd), r(i.Rt), r(i.Rs))
	case JR:
		return fmt.Sprintf("jr %s", r(i.Rs))
	case JALR:
		return fmt.Sprintf("jalr %s, %s", r(i.Rd), r(i.Rs))
	case SYSCALL:
		return "syscall"
	case BREAK:
		return "break"
	case MFHI, MFLO:
		return fmt.Sprintf("%v %s", i.Op, r(i.Rd))
	case MTHI, MTLO:
		return fmt.Sprintf("%v %s", i.Op, r(i.Rs))
	case MULT, MULTU, DIV, DIVU:
		return fmt.Sprintf("%v %s, %s", i.Op, r(i.Rs), r(i.Rt))
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU:
		return fmt.Sprintf("%v %s, %s, %s", i.Op, r(i.Rd), r(i.Rs), r(i.Rt))
	case BLTZ, BGEZ, BLEZ, BGTZ:
		return fmt.Sprintf("%v %s, %#x", i.Op, r(i.Rs), i.BranchTarget(pc))
	case J, JAL:
		return fmt.Sprintf("%v %#x", i.Op, i.Target)
	case BEQ, BNE:
		return fmt.Sprintf("%v %s, %s, %#x", i.Op, r(i.Rs), r(i.Rt), i.BranchTarget(pc))
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return fmt.Sprintf("%v %s, %s, %d", i.Op, r(i.Rt), r(i.Rs), i.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %#x", r(i.Rt), uint16(i.Imm))
	case LB, LH, LW, LBU, LHU, SB, SH, SW:
		return fmt.Sprintf("%v %s, %d(%s)", i.Op, r(i.Rt), i.Imm, r(i.Rs))
	}
	return fmt.Sprintf(".word %#x", i.Raw)
}
