// Package asm is a two-pass assembler for the MIPS R3000 subset of
// internal/mips.  It exists so benchmark programs and the mini-C compiler's
// output are genuine machine code that MIPSI fetches and decodes word by
// word, just as the paper's MIPSI consumed Ultrix binaries.
//
// Supported syntax:
//
//	.text / .data                 section switches
//	label:                        labels (text or data)
//	.word v, v, ...               32-bit values (numbers or label refs)
//	.half v, ...   .byte v, ...   16- and 8-bit values
//	.asciiz "s"    .ascii "s"     strings (with \n \t \\ \" \0 escapes)
//	.space n                      n zero bytes
//	.align n                      align to 2^n bytes
//	op operands                   native instructions
//
// plus the conventional pseudo-instructions nop, move, li, la, b, beqz,
// bnez, bge, bgt, ble, blt, mul, neg and not.  Branch and jump delay slots
// are architectural: the assembler emits exactly what it is given, and the
// compiler fills delay slots with nop (encoded as sll $0,$0,0 — the paper's
// footnote about inflated sll counts is reproduced faithfully).
package asm

import (
	"fmt"
	"strings"

	"interplab/internal/mips"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

type fixup struct {
	line    int
	textIdx int    // instruction index in text
	sym     string // label referenced
	kind    fixupKind
	addend  int32
}

type fixupKind int

const (
	fixBranch fixupKind = iota // 16-bit word offset relative to delay slot
	fixJump                    // 26-bit absolute word address
	fixHi                      // %hi(sym) for lui
	fixLo                      // %lo(sym) for ori
	fixWord                    // 32-bit data word
)

type assembler struct {
	text    []uint32
	data    []byte
	symbols map[string]uint32
	fixups  []fixup
	dataFix []struct {
		off    int
		sym    string
		addend int32
		line   int
	}
	sec  section
	line int
}

// Assemble assembles source into a Program named name.
func Assemble(name, source string) (*mips.Program, error) {
	a := &assembler{symbols: make(map[string]uint32)}
	lines := strings.Split(source, "\n")
	for i, raw := range lines {
		a.line = i + 1
		if err := a.doLine(raw); err != nil {
			return nil, err
		}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	p := &mips.Program{
		Name:     name,
		TextBase: mips.TextBase,
		Text:     a.text,
		DataBase: mips.DataBase,
		Data:     a.data,
		Symbols:  a.symbols,
		Entry:    mips.TextBase,
	}
	// The runtime startup symbol wins over main: compiled programs enter
	// through _start, which calls main and exits with its result.
	if e, ok := a.symbols["_start"]; ok {
		p.Entry = e
	} else if e, ok := a.symbols["main"]; ok {
		p.Entry = e
	}
	return p, nil
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) pc() uint32 { return mips.TextBase + uint32(len(a.text))*4 }

func (a *assembler) doLine(raw string) error {
	s := raw
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for s != "" {
		// Leading labels (possibly several on one line).
		i := strings.IndexByte(s, ':')
		if i < 0 || strings.ContainsAny(s[:i], " \t\"") {
			break
		}
		label := strings.TrimSpace(s[:i])
		if label == "" {
			return a.errf("empty label")
		}
		if _, dup := a.symbols[label]; dup {
			return a.errf("duplicate label %q", label)
		}
		if a.sec == secText {
			a.symbols[label] = a.pc()
		} else {
			a.symbols[label] = mips.DataBase + uint32(len(a.data))
		}
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	if s[0] == '.' {
		return a.directive(s)
	}
	if a.sec != secText {
		return a.errf("instruction outside .text: %q", s)
	}
	return a.instruction(s)
}

func (a *assembler) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".globl", ".global", ".ent", ".end", ".set":
		// Accepted and ignored, for compatibility.
	case ".word":
		for _, f := range splitOperands(rest) {
			if v, err := parseInt(f); err == nil {
				a.emitData32(uint32(v))
			} else {
				sym, addend := splitSymRef(f)
				a.dataFix = append(a.dataFix, struct {
					off    int
					sym    string
					addend int32
					line   int
				}{len(a.data), sym, addend, a.line})
				a.emitData32(0)
			}
		}
	case ".half":
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return a.errf("bad .half value %q", f)
			}
			a.data = append(a.data, byte(v), byte(v>>8))
		}
	case ".byte":
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return a.errf("bad .byte value %q", f)
			}
			a.data = append(a.data, byte(v))
		}
	case ".ascii", ".asciiz":
		str, err := parseString(rest)
		if err != nil {
			return a.errf("%v", err)
		}
		a.data = append(a.data, str...)
		if name == ".asciiz" {
			a.data = append(a.data, 0)
		}
	case ".space":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return a.errf("bad .space size %q", rest)
		}
		return a.pad(n)
	case ".align":
		n, err := parseInt(rest)
		if err != nil || n < 0 || n > 12 {
			return a.errf("bad .align %q", rest)
		}
		if a.sec == secData {
			return a.pad(int64(-len(a.data) & (1<<n - 1)))
		}
	default:
		return a.errf("unknown directive %q", name)
	}
	return nil
}

// maxData bounds the data segment, so that no directive makes the
// assembler allocate without limit; the lab's largest program has about
// 1 MB of data.
const maxData = 16 << 20

// pad appends n zero bytes to the data segment.
func (a *assembler) pad(n int64) error {
	if n > maxData-int64(len(a.data)) {
		return a.errf("data segment over %d bytes", maxData)
	}
	a.data = append(a.data, make([]byte, n)...)
	return nil
}

func (a *assembler) emitData32(v uint32) {
	a.data = append(a.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *assembler) emit(w uint32) { a.text = append(a.text, w) }

func (a *assembler) emitR(o mips.Op, rd, rs, rt, shamt int) error {
	w, err := mips.EncodeR(o, rd, rs, rt, shamt)
	if err != nil {
		return a.errf("%v", err)
	}
	a.emit(w)
	return nil
}

func (a *assembler) emitI(o mips.Op, rt, rs int, imm int32) error {
	w, err := mips.EncodeI(o, rt, rs, imm)
	if err != nil {
		return a.errf("%v", err)
	}
	a.emit(w)
	return nil
}
