package jvm

import (
	"encoding/binary"
	"fmt"

	"interplab/internal/atom"
)

// Cost model of the bytecode interpreter, in native instructions.  The
// dispatch loop is small and uniform (Table 2 reports ~16 fetch/decode
// instructions per bytecode); handler costs are small constants plus the
// real stack/heap traffic they generate.
const (
	costDispatch = 12
	costALU      = 3
	costStack    = 1
	costBranch   = 4
	costArray    = 6
	costField    = 7
	costInvoke   = 28
	costRet      = 14
	costNative   = 12
	costNew      = 20

	// Optimization-tier costs.  A quickened opcode has its operand
	// pre-resolved into an inline cache slot, so decode collapses to one
	// fetch and the handler skips the generic resolution work; the
	// one-time in-place rewrite at first execution costs costQuicken
	// (re-resolution plus the code store).
	costQuicken     = 10
	costLdcQ        = 3  // generic: costField
	costStaticQ     = 4  // generic: costField+3
	costFieldQ      = 5  // generic: costField+4
	costInvokeQ     = 20 // generic: costInvoke
	costFusePerSite = 2  // startup fusion scan, per instruction visited
)

// Object is a heap entity: an array or a field object.
type Object struct {
	Ints   []int32
	Bytes  []byte
	Fields []int32
	off    uint32 // base offset in the heap data region
}

type jframe struct {
	fn         int
	pc         int
	localsBase int
	stackBase  int
}

// VM interprets a Module.
type VM struct {
	Mod *Module

	// Threaded models threaded interpretation (§5): dispatch becomes an
	// indirect jump through a handler table instead of a switch.
	Threaded bool

	// Quicken enables operand-specialized opcode rewriting à la
	// Brunthaler: the first execution of a quickenable opcode (constant
	// loads, static/field access, invokestatic) rewrites it in place to
	// its _q form, which decodes and executes with the resolution work
	// pre-done.  Guest-visible behavior is identical; only the cost
	// signature changes.
	Quicken bool
	// QuickenRewrites counts in-place opcode rewrites performed; a site
	// rewrites at most once (the quick form has no quick form).
	QuickenRewrites uint64

	// Superinstructions statically fuses the hot opcode pairs of
	// fusedPairs before execution: one dispatch then executes both
	// halves.  Only the first opcode byte of a pair is replaced, so
	// branches into either original position stay valid.
	Superinstructions bool
	// FusedSites counts code positions rewritten to fused opcodes.
	FusedSites uint64

	p         *atom.Probe
	img       *atom.Image
	rDispatch *atom.Routine
	rFrame    *atom.Routine
	rQuicken  *atom.Routine
	rFuse     *atom.Routine
	handlers  [NumOpcodes]*atom.Routine
	opIDs     [NumOpcodes]atom.OpID

	// fusedH, while non-nil, redirects exec-cost attribution to the
	// fused superinstruction's own handler routine (both halves of a
	// fused pair execute inside one handler body).
	fusedH     *atom.Routine
	tiersReady bool

	codeReg   *atom.DataRegion
	stackReg  *atom.DataRegion
	staticReg *atom.DataRegion
	heapReg   *atom.DataRegion
	poolReg   *atom.DataRegion

	stackRegion atom.RegionID
	fieldRegion atom.RegionID

	codeOff []uint32 // function index -> code offset in codeReg

	stack     []int32
	frames    []jframe
	statics   []int32
	heap      []*Object
	heapTop   uint32
	constRefs map[int]int32

	// Steps counts executed bytecodes (virtual commands).
	Steps uint64
	// Exited is set when the program leaves main or calls an exit native.
	Exited   bool
	ExitCode int32
}

// New prepares a VM for mod.  img/p may be nil for uninstrumented tests.
func New(mod *Module, img *atom.Image, p *atom.Probe) (*VM, error) {
	vm := &VM{Mod: mod, p: p, img: img}
	if p != nil && img != nil {
		vm.rDispatch = img.Routine("jvm.dispatch", 110)
		vm.rFrame = img.Routine("jvm.frame", 160)
		// Only the baseline set is registered here: quick and fused
		// handlers join the image lazily (ensureTiers) when a tier is
		// switched on, so the baseline interpreter's code layout — and
		// its cache signature — is byte-identical with the tiers off.
		for op := 0; op < NumBaseOpcodes; op++ {
			o := Opcode(op)
			size := 14
			switch o.Category() {
			case "call":
				size = 40
			case "array", "field":
				size = 28
			case "native":
				size = 36
			}
			vm.handlers[op] = img.Routine("jvm.op."+o.String(), size)
			vm.opIDs[op] = p.OpName(o.String())
		}
		total := uint32(0)
		for _, f := range mod.Funcs {
			total += uint32(len(f.Code))
		}
		vm.codeReg = img.Data("jvm.code", total+64)
		vm.stackReg = img.Data("jvm.stack", 64<<10)
		vm.staticReg = img.Data("jvm.statics", uint32(len(mod.Statics)+1)*4)
		vm.heapReg = img.Data("jvm.heap", 1<<20)
		poolSize := uint32(0)
		for _, c := range mod.Consts {
			poolSize += uint32(len(c)) + 8
		}
		vm.poolReg = img.Data("jvm.pool", poolSize+64)
		vm.stackRegion = p.RegionName("java.stack")
		vm.fieldRegion = p.RegionName("java.field")

		vm.codeOff = make([]uint32, len(mod.Funcs))
		off := uint32(0)
		for i, f := range mod.Funcs {
			vm.codeOff[i] = off
			off += uint32(len(f.Code))
		}
	}

	// Startup: install statics (the class-loading analog).
	if p != nil {
		p.SetStartup(true)
	}
	vm.statics = make([]int32, len(mod.Statics))
	for i, s := range mod.Statics {
		switch {
		case s.ElemSize == 0:
			vm.statics[i] = s.Init
		case s.ElemSize == 1:
			b := make([]byte, s.Len)
			copy(b, s.InitData)
			vm.statics[i] = vm.allocObj(&Object{Bytes: b}, s.Len)
		default:
			ints := make([]int32, s.Len)
			copy(ints, s.InitInts)
			vm.statics[i] = vm.allocObj(&Object{Ints: ints}, s.Len*4)
		}
	}
	if p != nil {
		p.SetStartup(false)
	}
	return vm, nil
}

// allocObj places an object in the heap and returns its reference value.
func (vm *VM) allocObj(o *Object, size int) int32 {
	o.off = vm.heapTop
	vm.heapTop += uint32(size+63) &^ 63
	vm.heap = append(vm.heap, o)
	return int32(len(vm.heap)) // refs are index+1; 0 is null
}

// Obj resolves a reference.
func (vm *VM) Obj(ref int32) (*Object, error) {
	if ref <= 0 || int(ref) > len(vm.heap) {
		return nil, fmt.Errorf("jvm: null or bad reference %d", ref)
	}
	return vm.heap[ref-1], nil
}

// AllocBytes allocates a byte array (used by natives).
func (vm *VM) AllocBytes(b []byte) int32 {
	return vm.allocObj(&Object{Bytes: b}, len(b))
}

// --- instrumented stack operations ------------------------------------------

func (vm *VM) push(v int32) {
	if vm.p != nil {
		vm.p.Enter(vm.stackRegion)
		vm.p.CountAccess(vm.stackRegion)
		vm.p.Exec(vm.handlers[OpDup], costStack)
		vm.p.Store(vm.stackReg.Addr(uint32(len(vm.stack)) * 4))
		vm.p.Leave()
	}
	vm.stack = append(vm.stack, v)
}

func (vm *VM) pop() (int32, error) {
	if len(vm.frames) > 0 && len(vm.stack) <= vm.frames[len(vm.frames)-1].stackBase {
		return 0, fmt.Errorf("jvm: operand stack underflow")
	}
	if len(vm.stack) == 0 {
		return 0, fmt.Errorf("jvm: operand stack underflow")
	}
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	if vm.p != nil {
		vm.p.Enter(vm.stackRegion)
		vm.p.CountAccess(vm.stackRegion)
		vm.p.Exec(vm.handlers[OpPop], costStack)
		vm.p.Load(vm.stackReg.Addr(uint32(len(vm.stack)) * 4))
		vm.p.Leave()
	}
	return v, nil
}

func (vm *VM) local(slot int) uint32 {
	f := &vm.frames[len(vm.frames)-1]
	return uint32(f.localsBase+slot) * 4
}

// --- execution ---------------------------------------------------------------

// Call pushes a frame for function fi with the given arguments.
func (vm *VM) Call(fi int, args []int32) error {
	if fi < 0 || fi >= len(vm.Mod.Funcs) {
		return fmt.Errorf("jvm: bad function index %d", fi)
	}
	fn := vm.Mod.Funcs[fi]
	if len(args) != fn.NArgs {
		return fmt.Errorf("jvm: %s expects %d args, got %d", fn.Name, fn.NArgs, len(args))
	}
	localsBase := len(vm.stack)
	vm.stack = append(vm.stack, args...)
	for i := fn.NArgs; i < fn.NLocals; i++ {
		vm.stack = append(vm.stack, 0)
	}
	vm.frames = append(vm.frames, jframe{fn: fi, pc: 0, localsBase: localsBase, stackBase: len(vm.stack)})
	return nil
}

// Run executes function name until completion or maxSteps bytecodes.
func (vm *VM) Run(name string, maxSteps uint64) (int32, error) {
	vm.ensureTiers()
	fi, err := vm.Mod.FuncIndex(name)
	if err != nil {
		return 0, err
	}
	if err := vm.Call(fi, nil); err != nil {
		return 0, err
	}
	for len(vm.frames) > 0 && !vm.Exited {
		if maxSteps > 0 && vm.Steps >= maxSteps {
			return 0, fmt.Errorf("jvm: step budget exhausted (%d)", maxSteps)
		}
		if err := vm.Step(); err != nil {
			return 0, err
		}
	}
	return vm.ExitCode, nil
}

// Step executes one bytecode.
func (vm *VM) Step() error {
	f := &vm.frames[len(vm.frames)-1]
	fn := vm.Mod.Funcs[f.fn]
	if f.pc >= len(fn.Code) {
		return fmt.Errorf("jvm: pc past end of %s", fn.Name)
	}
	op := Opcode(fn.Code[f.pc])
	if op.IsFused() {
		return vm.stepFused(f, fn, op)
	}
	opnd := fn.Code[f.pc+1:]
	vm.Steps++

	p := vm.p
	if p != nil {
		p.BeginCommand(vm.opIDs[op])
		dispatch := costDispatch
		if vm.Threaded {
			dispatch = 4 // fetch, index, indirect jump
		}
		decode := op.OperandBytes()
		if op.IsQuick() {
			decode = 1 // operand pre-resolved by the quickening rewrite
		}
		p.Exec(vm.rDispatch, dispatch+decode)
		p.Load(vm.codeReg.Addr(vm.codeOff[f.fn] + uint32(f.pc)))
		p.BeginExecute()
	}
	fi, pc0 := f.fn, f.pc
	err := vm.exec(f, fn, op, opnd)
	if err == nil && vm.Quicken {
		vm.maybeQuicken(fi, fn, pc0, op)
	}
	if p != nil {
		p.EndCommand()
	}
	return err
}

func (vm *VM) u16(opnd []byte) int { return int(binary.LittleEndian.Uint16(opnd)) }

func (vm *VM) branch16(f *jframe, opnd []byte) {
	f.pc += int(int16(binary.LittleEndian.Uint16(opnd)))
}

func (vm *VM) exec(f *jframe, fn *Function, op Opcode, opnd []byte) error {
	p := vm.p
	h := vm.handlers[op]
	if vm.fusedH != nil {
		h = vm.fusedH // both halves of a fused pair run in its handler
	}
	next := f.pc + 1 + op.OperandBytes()
	exec := func(n int) {
		if p != nil {
			p.Exec(h, n)
		}
	}

	switch op {
	case OpNop:
		exec(1)

	case OpIconst, OpIconstQ:
		exec(costALU)
		vm.push(int32(binary.LittleEndian.Uint32(opnd)))

	case OpLdc, OpLdcQ:
		if op == OpLdcQ {
			exec(costLdcQ) // the rewrite interned the constant already
		} else {
			exec(costField)
		}
		idx := vm.u16(opnd)
		if idx >= len(vm.Mod.Consts) {
			return fmt.Errorf("jvm: bad constant index %d", idx)
		}
		// Constant references are interned: allocate once per const.
		if p != nil {
			p.Load(vm.poolReg.Addr(uint32(idx) * 8))
		}
		vm.push(vm.internConst(idx))

	case OpIload:
		exec(costALU)
		if p != nil {
			p.Enter(vm.stackRegion)
			p.CountAccess(vm.stackRegion)
			p.Load(vm.stackReg.Addr(vm.local(int(opnd[0]))))
			p.Leave()
		}
		vm.push(vm.stack[f.localsBase+int(opnd[0])])

	case OpIstore:
		exec(costALU)
		v, err := vm.pop()
		if err != nil {
			return err
		}
		if p != nil {
			p.Enter(vm.stackRegion)
			p.CountAccess(vm.stackRegion)
			p.Store(vm.stackReg.Addr(vm.local(int(opnd[0]))))
			p.Leave()
		}
		vm.stack[f.localsBase+int(opnd[0])] = v

	case OpIinc:
		exec(costALU + 1)
		slot := int(opnd[0])
		if p != nil {
			p.Enter(vm.stackRegion)
			p.CountAccess(vm.stackRegion)
			p.Load(vm.stackReg.Addr(vm.local(slot)))
			p.Store(vm.stackReg.Addr(vm.local(slot)))
			p.Leave()
		}
		vm.stack[f.localsBase+slot] += int32(int8(opnd[1]))

	case OpDup:
		exec(1)
		v, err := vm.pop()
		if err != nil {
			return err
		}
		vm.push(v)
		vm.push(v)

	case OpPop:
		exec(1)
		if _, err := vm.pop(); err != nil {
			return err
		}

	case OpSwap:
		exec(2)
		a, err := vm.pop()
		if err != nil {
			return err
		}
		b, err := vm.pop()
		if err != nil {
			return err
		}
		vm.push(a)
		vm.push(b)

	case OpIadd, OpIsub, OpImul, OpIdiv, OpIrem, OpIand, OpIor, OpIxor, OpIshl, OpIshr, OpIushr:
		exec(costALU)
		b, err := vm.pop()
		if err != nil {
			return err
		}
		a, err := vm.pop()
		if err != nil {
			return err
		}
		var r int32
		switch op {
		case OpIadd:
			r = a + b
		case OpIsub:
			r = a - b
		case OpImul:
			r = a * b
			if p != nil {
				p.ExecMul(h, 2)
			}
		case OpIdiv:
			if b == 0 {
				return fmt.Errorf("jvm: division by zero")
			}
			r = a / b
			if p != nil {
				p.ExecMul(h, 2)
			}
		case OpIrem:
			if b == 0 {
				return fmt.Errorf("jvm: division by zero")
			}
			r = a % b
			if p != nil {
				p.ExecMul(h, 2)
			}
		case OpIand:
			r = a & b
		case OpIor:
			r = a | b
		case OpIxor:
			r = a ^ b
		case OpIshl:
			r = a << (uint32(b) & 31)
		case OpIshr:
			r = a >> (uint32(b) & 31)
		case OpIushr:
			r = int32(uint32(a) >> (uint32(b) & 31))
		}
		vm.push(r)

	case OpIneg:
		exec(costALU)
		v, err := vm.pop()
		if err != nil {
			return err
		}
		vm.push(-v)

	case OpGoto:
		exec(costBranch)
		vm.branch16(f, opnd)
		return nil

	case OpIfeq, OpIfne, OpIflt, OpIfle, OpIfgt, OpIfge:
		exec(costBranch)
		v, err := vm.pop()
		if err != nil {
			return err
		}
		var taken bool
		switch op {
		case OpIfeq:
			taken = v == 0
		case OpIfne:
			taken = v != 0
		case OpIflt:
			taken = v < 0
		case OpIfle:
			taken = v <= 0
		case OpIfgt:
			taken = v > 0
		case OpIfge:
			taken = v >= 0
		}
		if taken {
			vm.branch16(f, opnd)
			return nil
		}

	case OpIfIcmpeq, OpIfIcmpne, OpIfIcmplt, OpIfIcmple, OpIfIcmpgt, OpIfIcmpge:
		exec(costBranch + 1)
		b, err := vm.pop()
		if err != nil {
			return err
		}
		a, err := vm.pop()
		if err != nil {
			return err
		}
		var taken bool
		switch op {
		case OpIfIcmpeq:
			taken = a == b
		case OpIfIcmpne:
			taken = a != b
		case OpIfIcmplt:
			taken = a < b
		case OpIfIcmple:
			taken = a <= b
		case OpIfIcmpgt:
			taken = a > b
		case OpIfIcmpge:
			taken = a >= b
		}
		if taken {
			vm.branch16(f, opnd)
			return nil
		}

	case OpInvokeStatic, OpInvokeStaticQ:
		fi := vm.u16(opnd)
		if fi >= len(vm.Mod.Funcs) {
			return fmt.Errorf("jvm: bad function index %d", fi)
		}
		callee := vm.Mod.Funcs[fi]
		if p != nil {
			cost := costInvoke
			if op == OpInvokeStaticQ {
				cost = costInvokeQ // callee resolved at rewrite time
			}
			p.Call(vm.rFrame)
			p.Exec(vm.rFrame, cost)
			// Frame setup writes the callee's local slots.
			for i := 0; i < callee.NLocals; i++ {
				p.Store(vm.stackReg.Addr(uint32(len(vm.stack)+i) * 4))
			}
		}
		args := make([]int32, callee.NArgs)
		for i := callee.NArgs - 1; i >= 0; i-- {
			v, err := vm.pop()
			if err != nil {
				return err
			}
			args[i] = v
		}
		f.pc = next
		return vm.Call(fi, args)

	case OpInvokeNative:
		ni := vm.u16(opnd)
		if ni >= len(vm.Mod.Natives) {
			return fmt.Errorf("jvm: bad native index %d", ni)
		}
		nat := vm.Mod.Natives[ni]
		exec(costNative)
		args := make([]int32, nat.Arity)
		for i := nat.Arity - 1; i >= 0; i-- {
			v, err := vm.pop()
			if err != nil {
				return err
			}
			args[i] = v
		}
		vm.push(nat.F(vm, args))

	case OpReturn, OpIreturn:
		if p != nil {
			p.Exec(vm.rFrame, costRet)
			p.Ret()
		}
		var ret int32
		if op == OpIreturn {
			v, err := vm.pop()
			if err != nil {
				return err
			}
			ret = v
		}
		vm.stack = vm.stack[:f.localsBase]
		vm.frames = vm.frames[:len(vm.frames)-1]
		if len(vm.frames) == 0 {
			vm.Exited = true
			vm.ExitCode = ret
			return nil
		}
		if op == OpIreturn {
			vm.push(ret)
		}
		return nil

	case OpGetStatic, OpPutStatic, OpGetStaticQ, OpPutStaticQ:
		idx := vm.u16(opnd)
		if idx >= len(vm.statics) {
			return fmt.Errorf("jvm: bad static index %d", idx)
		}
		isGet := op == OpGetStatic || op == OpGetStaticQ
		if p != nil {
			cost := costField + 3 // resolution plus the handler body
			if op.IsQuick() {
				cost = costStaticQ // slot index cached by the rewrite
			}
			p.Enter(vm.fieldRegion)
			p.CountAccess(vm.fieldRegion)
			p.Exec(h, cost)
			if isGet {
				p.Load(vm.staticReg.Addr(uint32(idx) * 4))
			} else {
				p.Store(vm.staticReg.Addr(uint32(idx) * 4))
			}
			p.Leave()
		}
		if isGet {
			vm.push(vm.statics[idx])
		} else {
			v, err := vm.pop()
			if err != nil {
				return err
			}
			vm.statics[idx] = v
		}

	case OpNew:
		exec(costNew)
		nfields := vm.u16(opnd)
		ref := vm.allocObj(&Object{Fields: make([]int32, nfields)}, nfields*4)
		if p != nil {
			for i := 0; i < nfields; i++ {
				p.Store(vm.heapReg.Addr(vm.heap[ref-1].off + uint32(i)*4))
			}
		}
		vm.push(ref)

	case OpGetField, OpPutField, OpGetFieldQ, OpPutFieldQ:
		idx := vm.u16(opnd)
		fieldCost := costField + 4
		if op.IsQuick() {
			fieldCost = costFieldQ // field offset cached by the rewrite
		}
		if op == OpGetField || op == OpGetFieldQ {
			ref, err := vm.pop()
			if err != nil {
				return err
			}
			o, err := vm.Obj(ref)
			if err != nil {
				return err
			}
			if idx >= len(o.Fields) {
				return fmt.Errorf("jvm: bad field index %d", idx)
			}
			if p != nil {
				p.Enter(vm.fieldRegion)
				p.CountAccess(vm.fieldRegion)
				p.Exec(h, fieldCost)
				p.Load(vm.heapReg.Addr(o.off + uint32(idx)*4))
				p.Leave()
			}
			vm.push(o.Fields[idx])
		} else {
			v, err := vm.pop()
			if err != nil {
				return err
			}
			ref, err := vm.pop()
			if err != nil {
				return err
			}
			o, err := vm.Obj(ref)
			if err != nil {
				return err
			}
			if idx >= len(o.Fields) {
				return fmt.Errorf("jvm: bad field index %d", idx)
			}
			if p != nil {
				p.Enter(vm.fieldRegion)
				p.CountAccess(vm.fieldRegion)
				p.Exec(h, fieldCost)
				p.Store(vm.heapReg.Addr(o.off + uint32(idx)*4))
				p.Leave()
			}
			o.Fields[idx] = v
		}

	case OpNewArrayI, OpNewArrayB:
		exec(costNew)
		n, err := vm.pop()
		if err != nil {
			return err
		}
		if n < 0 || n > 16<<20 {
			return fmt.Errorf("jvm: bad array length %d", n)
		}
		var ref int32
		if op == OpNewArrayI {
			ref = vm.allocObj(&Object{Ints: make([]int32, n)}, int(n)*4)
		} else {
			ref = vm.allocObj(&Object{Bytes: make([]byte, n)}, int(n))
		}
		vm.push(ref)

	case OpIaload, OpBaload:
		exec(costArray)
		idx, err := vm.pop()
		if err != nil {
			return err
		}
		ref, err := vm.pop()
		if err != nil {
			return err
		}
		o, err := vm.Obj(ref)
		if err != nil {
			return err
		}
		var v int32
		var at uint32
		if op == OpIaload {
			if idx < 0 || int(idx) >= len(o.Ints) {
				return fmt.Errorf("jvm: index %d out of bounds [0,%d)", idx, len(o.Ints))
			}
			v = o.Ints[idx]
			at = o.off + uint32(idx)*4
		} else {
			if idx < 0 || int(idx) >= len(o.Bytes) {
				return fmt.Errorf("jvm: index %d out of bounds [0,%d)", idx, len(o.Bytes))
			}
			v = int32(int8(o.Bytes[idx]))
			at = o.off + uint32(idx)
		}
		if p != nil {
			p.Load(vm.heapReg.Addr(at))
		}
		vm.push(v)

	case OpIastore, OpBastore:
		exec(costArray)
		v, err := vm.pop()
		if err != nil {
			return err
		}
		idx, err := vm.pop()
		if err != nil {
			return err
		}
		ref, err := vm.pop()
		if err != nil {
			return err
		}
		o, err := vm.Obj(ref)
		if err != nil {
			return err
		}
		var at uint32
		if op == OpIastore {
			if idx < 0 || int(idx) >= len(o.Ints) {
				return fmt.Errorf("jvm: index %d out of bounds [0,%d)", idx, len(o.Ints))
			}
			o.Ints[idx] = v
			at = o.off + uint32(idx)*4
		} else {
			if idx < 0 || int(idx) >= len(o.Bytes) {
				return fmt.Errorf("jvm: index %d out of bounds [0,%d)", idx, len(o.Bytes))
			}
			o.Bytes[idx] = byte(v)
			at = o.off + uint32(idx)
		}
		if p != nil {
			p.Store(vm.heapReg.Addr(at))
		}

	case OpArrayLen:
		exec(costArray)
		ref, err := vm.pop()
		if err != nil {
			return err
		}
		o, err := vm.Obj(ref)
		if err != nil {
			return err
		}
		n := len(o.Ints)
		if o.Bytes != nil {
			n = len(o.Bytes)
		}
		if p != nil {
			p.Load(vm.heapReg.Addr(o.off))
		}
		vm.push(int32(n))

	default:
		return fmt.Errorf("jvm: unknown opcode %d at %s+%d", op, fn.Name, f.pc)
	}
	f.pc = next
	return nil
}

// internConst returns the (lazily allocated) reference for a pool constant.
func (vm *VM) internConst(idx int) int32 {
	if vm.constRefs == nil {
		vm.constRefs = make(map[int]int32)
	}
	if r, ok := vm.constRefs[idx]; ok {
		return r
	}
	b := append([]byte(nil), vm.Mod.Consts[idx]...)
	r := vm.AllocBytes(b)
	vm.constRefs[idx] = r
	return r
}
