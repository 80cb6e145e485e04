package jvm

import (
	"encoding/binary"
	"fmt"
)

// Function is one compiled bytecode method.
type Function struct {
	Name    string
	NArgs   int
	NLocals int // including args
	Code    []byte
}

// NativeFn is an entry in the native-method registry: precompiled code the
// interpreter calls out to (runtime library, graphics, OS).
type NativeFn struct {
	Name  string
	Arity int
	// F receives the VM (for heap access) and the argument values and
	// returns the result (ignored for void natives).
	F func(vm *VM, args []int32) int32
}

// Static is one static slot (a compiled global scalar, or a reference to a
// statically allocated array object).
type Static struct {
	Name string
	Init int32
	// Array describes a statically allocated array: ElemSize 0 means a
	// scalar slot.
	ElemSize int // 0, 1 (byte array) or 4 (int array)
	Len      int
	InitData []byte // initial bytes for byte arrays
	InitInts []int32
}

// Module is a compiled program: the analog of a set of class files.
type Module struct {
	Name    string
	Funcs   []*Function
	Natives []*NativeFn
	Statics []*Static
	Consts  [][]byte // constant pool: string/byte-array literals
}

// FuncIndex returns the index of a named function.
func (m *Module) FuncIndex(name string) (int, error) {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("jvm: no function %q", name)
}

// CodeBytes returns the total bytecode size — the module's Table 2 "Size".
func (m *Module) CodeBytes() int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Code)
	}
	for _, c := range m.Consts {
		n += len(c)
	}
	return n
}

// Asm is a little bytecode assembler for building Functions, used by the
// compiler backend and by tests.
type Asm struct {
	code   []byte
	labels map[string]int
	refs   []asmRef
}

type asmRef struct {
	at    int // offset of the opcode byte
	opnd  int // offset of the operand
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm { return &Asm{labels: make(map[string]int)} }

// Label binds name to the current position.
func (a *Asm) Label(name string) *Asm {
	a.labels[name] = len(a.code)
	return a
}

// Op emits a plain opcode.
func (a *Asm) Op(op Opcode) *Asm {
	a.code = append(a.code, byte(op))
	return a
}

// I32 emits an opcode with a 4-byte operand (iconst).
func (a *Asm) I32(op Opcode, v int32) *Asm {
	a.code = append(a.code, byte(op), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(a.code[len(a.code)-4:], uint32(v))
	return a
}

// U8 emits an opcode with a 1-byte operand (iload/istore).
func (a *Asm) U8(op Opcode, v int) *Asm {
	a.code = append(a.code, byte(op), byte(v))
	return a
}

// Iinc emits iinc with slot and delta.
func (a *Asm) Iinc(slot int, delta int) *Asm {
	a.code = append(a.code, byte(OpIinc), byte(slot), byte(int8(delta)))
	return a
}

// U16 emits an opcode with a 2-byte operand (invoke/static/ldc).
func (a *Asm) U16(op Opcode, v int) *Asm {
	a.code = append(a.code, byte(op), byte(v), byte(v>>8))
	return a
}

// Br emits a branch to a label (resolved by Finish).
func (a *Asm) Br(op Opcode, label string) *Asm {
	a.refs = append(a.refs, asmRef{at: len(a.code), opnd: len(a.code) + 1, label: label})
	a.code = append(a.code, byte(op), 0, 0)
	return a
}

// Finish resolves labels and returns the bytecode.
func (a *Asm) Finish() ([]byte, error) {
	for _, r := range a.refs {
		target, ok := a.labels[r.label]
		if !ok {
			return nil, fmt.Errorf("jvm: undefined label %q", r.label)
		}
		off := target - r.at
		if off < -32768 || off > 32767 {
			return nil, fmt.Errorf("jvm: branch to %q out of range", r.label)
		}
		binary.LittleEndian.PutUint16(a.code[r.opnd:], uint16(int16(off)))
	}
	return a.code, nil
}

// Bind wires native-method implementations into the module by name.  The
// compiler emits natives with nil implementations; the runtime (OS,
// graphics, print helpers) provides the bodies before execution.  Natives
// with no matching implementation are left unbound (see Unbound); an arity
// mismatch is an error.
func (m *Module) Bind(impls []*NativeFn) error {
	byName := make(map[string]*NativeFn, len(impls))
	for _, im := range impls {
		byName[im.Name] = im
	}
	for _, n := range m.Natives {
		if n.F != nil {
			continue
		}
		im, ok := byName[n.Name]
		if !ok {
			continue
		}
		if im.Arity != n.Arity {
			return fmt.Errorf("jvm: native %q arity mismatch: declared %d, implemented %d", n.Name, n.Arity, im.Arity)
		}
		n.F = im.F
	}
	return nil
}

// Unbound lists natives still lacking an implementation.
func (m *Module) Unbound() []string {
	var out []string
	for _, n := range m.Natives {
		if n.F == nil {
			out = append(out, n.Name)
		}
	}
	return out
}
