package bytecode

import (
	"fmt"
	"slices"

	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/types"
	"repro/internal/value"
)

// Verify checks a compiled program against the IR's rules, the structural
// ones and the typing table in the package comment, and returns the first
// violation with its function, chunk and pc. The VM executes typed opcodes
// without looking at an operand's kind, so these rules are what makes that
// sound; Compile and every optimizer phase keep them, and the tests run
// Verify after each (VerifyOptimize). Nothing outside tests calls it.
func Verify(p *Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ve, ok := r.(*verifyError)
			if !ok {
				panic(r)
			}
			err = ve
		}
	}()
	v := &verifier{p: p}
	for _, f := range p.Funcs {
		for ci := range f.Chunks {
			v.f, v.ci, v.ch = f, ci, &f.Chunks[ci]
			v.chunk()
		}
	}
	return nil
}

type verifyError struct{ msg string }

func (e *verifyError) Error() string { return e.msg }

type verifier struct {
	p  *Program
	f  *Func
	ci int
	ch *Chunk
	pc int
}

// failf reports a violation at the current instruction.
func (v *verifier) failf(format string, args ...any) {
	where := fmt.Sprintf("%s chunk %d", v.f.Name, v.ci)
	if v.pc >= 0 && v.pc < len(v.ch.Code) {
		where += fmt.Sprintf(" pc %d %s", v.pc, v.ch.Code[v.pc].Op)
	}
	panic(&verifyError{msg: fmt.Sprintf("bytecode: %s: %s", where, fmt.Sprintf(format, args...))})
}

// mixed is the type of a register that is defined on every path here but
// not with one type: it may be read where any value will do (a move, ==),
// never where a type is claimed. An undefined register is a nil type.
var mixed = new(types.Type)

func typeName(t *types.Type) string {
	switch t {
	case nil:
		return "nothing"
	case mixed:
		return "values of different types"
	}
	return t.String()
}

// meet is what is known of a register where two paths join.
func meet(a, b *types.Type) *types.Type {
	switch {
	case a == nil || b == nil:
		return nil
	case a != mixed && b != mixed && types.Equal(a, b):
		return a
	}
	return mixed
}

// chunk verifies the current chunk: the per-chunk structure, then a
// forward dataflow of register types from the entry — private variable
// slots hold their declared types (a thread body's copy included; a shared
// variable has a cell instead), temporaries nothing — to a fixpoint,
// joining with meet at jump targets, and finally every instruction against
// the types that reach it, which it returns per pc (nil where unreached).
// Unreachable instructions are held to the structural rules only.
func (v *verifier) chunk() [][]*types.Type {
	f, ch := v.f, v.ch
	code := ch.Code
	v.pc = -1
	if len(ch.Pos) != len(code) {
		v.failf("Pos has %d entries for %d instructions", len(ch.Pos), len(code))
	}
	if len(f.SlotTypes) != f.NumSlots {
		v.failf("SlotTypes has %d entries for %d slots", len(f.SlotTypes), f.NumSlots)
	}
	if n := len(code); n == 0 || !slices.Contains([]Op{OpReturn, OpReturnNone, OpTailCall, OpJump}, code[n-1].Op) {
		v.failf("control can run off the end of the chunk")
	}

	entry := make([]*types.Type, f.NumSlots+ch.NumTemps)
	for slot, t := range f.SlotTypes {
		if !f.SharedSlot(int32(slot)) {
			entry[slot] = t
		}
	}
	in := make([][]*types.Type, len(code))
	in[0] = entry
	work := []int{0}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		v.pc = pc
		out := v.instr(&code[pc], in[pc], false)
		next, n := successors(&code[pc], pc)
		for _, s := range next[:n] {
			if s < 0 || s >= len(code) {
				continue // reported below, as a structural violation
			}
			if in[s] == nil {
				in[s] = make([]*types.Type, len(out)) // not nil even when empty: nil is unreached
				copy(in[s], out)
				work = append(work, s)
				continue
			}
			for r, t := range in[s] {
				if m := meet(t, out[r]); m != t {
					in[s][r] = m
					work = append(work, s)
				}
			}
		}
	}
	for pc := range code {
		v.pc = pc
		v.instr(&code[pc], in[pc], true)
	}
	return in
}

// successors returns the pcs control can reach from ins at pc.
func successors(ins *Instr, pc int) (next [2]int, n int) {
	switch ins.Op {
	case OpJump:
		return [2]int{int(ins.A)}, 1
	case OpReturn, OpReturnNone, OpTailCall:
		return next, 0
	}
	if t := ins.target(); t != nil {
		return [2]int{int(*t), pc + 1}, 2
	}
	return [2]int{pc + 1}, 1
}

// instr applies one instruction to st, the types its registers hold
// before it (nil when it is unreachable), and returns the types they hold
// after. With report set a violation fails the verification; without, the
// dataflow is still converging and a register that breaks a rule is only
// not typed.
func (v *verifier) instr(ins *Instr, st []*types.Type, report bool) []*types.Type {
	f, ch := v.f, v.ch
	out := make([]*types.Type, len(st))
	copy(out, st)
	failf := func(format string, args ...any) {
		if report {
			v.failf(format, args...)
		}
	}
	// reg checks a register operand that is not part of a block.
	reg := func(r int32) {
		if r < 0 || int(r) >= f.NumSlots+ch.NumTemps {
			failf("register r%d out of range [0, %d)", r, f.NumSlots+ch.NumTemps)
		} else if int(r) < f.NumSlots && f.SharedSlot(r) {
			failf("names the register of %s, a shared variable", f.reg(r))
		}
	}
	// read returns the type register r holds, which must be defined.
	read := func(r int32) *types.Type {
		reg(r)
		if st == nil || r < 0 || int(r) >= len(st) {
			return mixed
		}
		if st[r] == nil {
			failf("reads %s, which is not written on every path to here", f.reg(r))
			return mixed
		}
		return st[r]
	}
	// want reads r and requires one of the given types.
	want := func(r int32, ok ...*types.Type) *types.Type {
		t := read(r)
		for _, o := range ok {
			if st == nil || (t != mixed && types.Equal(t, o)) {
				return t
			}
		}
		failf("operand %s holds %s, want %s", f.reg(r), typeName(t), typeNames(ok))
		return mixed
	}
	// seq reads r as something to iterate or index and returns its element
	// type: an array's, or string for a string when strings are allowed.
	seq := func(r int32, orString bool) *types.Type {
		switch t := read(r); {
		case st == nil:
		case t.IsArray():
			return t.Elem()
		case orString && t.Kind() == types.String:
			return types.StringType
		case orString:
			failf("operand %s holds %s, want an array or a string", f.reg(r), typeName(t))
		default:
			failf("operand %s holds %s, want an array", f.reg(r), typeName(t))
		}
		return mixed
	}
	// write records that r now holds a t. A variable slot only ever holds
	// its declared type, which is what lets the entry state assume it.
	write := func(r int32, t *types.Type) {
		reg(r)
		if r < 0 || int(r) >= len(out) {
			return
		}
		if int(r) < f.NumSlots {
			if t == mixed || !types.Equal(t, f.SlotTypes[r]) {
				failf("writes %s into %s, a %s", typeName(t), f.reg(r), f.SlotTypes[r])
			}
			return
		}
		out[r] = t
	}
	// block checks the n registers from base, which must be temporaries,
	// and returns their types. The VM runs every chunk, a parallel sub-chunk
	// too, over a window of NumSlots+NumTemps registers and slices the block
	// out of it, so an empty block may sit at the very end of the window —
	// a call without arguments in a chunk without temporaries — and no
	// further.
	block := func(base, n int32) []*types.Type {
		lo, hi := int32(f.NumSlots), int32(f.NumSlots+ch.NumTemps)
		if n < 0 || base < lo || base+n > hi {
			failf("block operand r%d..#%d reaches outside the temporaries [r%d, r%d)", base, n, lo, hi)
			return nil
		}
		ts := make([]*types.Type, n)
		for i := range ts {
			ts[i] = read(base + int32(i))
		}
		return ts
	}
	konst := func(i int32) *types.Type {
		if i < 0 || int(i) >= len(f.Consts) {
			failf("constant #%d out of range [0, %d)", i, len(f.Consts))
			return mixed
		}
		return value.TypeOf(f.Consts[i])
	}
	// wantConst requires constant i to be a t.
	wantConst := func(i int32, t *types.Type) {
		if k := konst(i); k != mixed && !types.Equal(k, t) {
			failf("constant %s is %s, want %s", f.constStr(i), typeName(k), t)
		}
	}
	cell := func(i int32) *types.Type {
		switch {
		case i < 0 || int(i) >= f.NumSlots:
			failf("cell c%d out of range [0, %d)", i, f.NumSlots)
		case !f.SharedSlot(i):
			failf("cell operand %s is a private variable", f.cell(i))
		default:
			return f.SlotTypes[i]
		}
		return mixed
	}
	if t := ins.target(); t != nil && (*t < 0 || int(*t) >= len(ch.Code)) {
		failf("jump target %d out of range [0, %d)", *t, len(ch.Code))
	}
	if ins.Op >= numOps {
		failf("unknown opcode")
	}
	if !ch.Pos[v.pc].IsValid() && canRaise(ins.Op) {
		failf("can raise but has no source position")
	}

	in := ins.Op.info()
	num := []*types.Type{types.IntType, types.RealType}
	switch in.form {
	case fConst:
		write(ins.Dst, konst(ins.A))

	case fUnary:
		switch ins.Op {
		case OpMove:
			write(ins.Dst, read(ins.A))
		case OpToReal:
			want(ins.A, num...)
			write(ins.Dst, types.RealType)
		case OpNeg:
			write(ins.Dst, want(ins.A, num...))
		case OpNot:
			write(ins.Dst, want(ins.A, types.BoolType))
		}

	case fBinary, fBinaryK, fBinaryKL, fCmpJump, fCmpJumpK:
		// Two operands: registers A and B, or register A and constant B.
		var l, r *types.Type
		switch {
		case ins.Op == OpIndex || ins.Op == OpIndexArr:
			elem := seq(ins.A, ins.Op == OpIndex)
			want(ins.B, types.IntType)
			write(ins.Dst, elem)
			return out
		case ins.Op == OpRange:
			want(ins.A, types.IntType)
			want(ins.B, types.IntType)
			write(ins.Dst, types.ArrayOf(types.IntType))
			return out
		case in.kind != nil && (in.form == fBinary || in.form == fCmpJump):
			l, r = want(ins.A, in.kind), want(ins.B, in.kind)
		case in.kind != nil:
			l, r = want(ins.A, in.kind), in.kind
			wantConst(ins.B, in.kind)
			if in.form == fBinaryK && (in.op == sem.Div || in.op == sem.Mod) && int(ins.B) < len(f.Consts) && f.Consts[ins.B].AsReal() == 0 {
				failf("constant divisor is zero; only the unfused %s raises that error", in.op)
			}
		case in.form == fBinary || in.form == fCmpJump:
			l, r = read(ins.A), read(ins.B)
		default:
			l, r = read(ins.A), konst(ins.B)
		}
		// The operator: in the opcode, or in C for the untyped fused forms.
		op := in.op
		switch ins.Op {
		case OpArithConst, OpArithConstL:
			op = untypedOp(Op(ins.C), false, failf)
		case OpCmpJump, OpCmpConstJump:
			cmp, _ := UnpackCmp(ins.C)
			op = untypedOp(cmp, true, failf)
		}
		res := in.kind
		if in.kind == nil {
			// An untyped operator runs a generic kernel: string +, the
			// comparisons of strings, and == and != of bools and arrays.
			// Numbers have the typed opcodes.
			res = l
			switch str := l.Kind() == types.String && r.Kind() == types.String; {
			case st == nil:
			case l.IsNumeric() || r.IsNumeric():
				failf("untyped %s of %s and %s", op, typeName(l), typeName(r))
			case op != sem.Eq && op != sem.Ne && !str:
				failf("%s of %s and %s", op, typeName(l), typeName(r))
			}
		}
		if op.IsCompare() {
			res = types.BoolType
		}
		if in.form != fCmpJump && in.form != fCmpJumpK {
			write(ins.Dst, res)
		}

	case fJumpIf:
		want(ins.B, types.BoolType)

	case fCall:
		args := block(ins.B, ins.C)
		var res *types.Type
		if ins.Op != OpCallBuiltin {
			if ins.A < 0 || int(ins.A) >= len(v.p.Funcs) {
				failf("function #%d out of range [0, %d)", ins.A, len(v.p.Funcs))
				break
			}
			callee := v.p.Funcs[ins.A]
			if ins.Op == OpTailCall {
				switch {
				case callee != f:
					failf("tail-calls %s, not the function itself", callee.Name)
				case v.ci != 0:
					failf("tail-calls from a parallel sub-chunk")
				case ins.Dst != -1:
					failf("names a destination; a tail call returns its result")
				}
			}
			if len(args) != len(callee.Params) {
				failf("%d arguments for the %d parameters of %s", len(args), len(callee.Params), callee.Name)
				break
			}
			for i, a := range args {
				if st != nil && (a == mixed || !types.Equal(a, callee.Params[i])) {
					failf("argument %d of %s holds %s, want %s", i+1, callee.Name, typeName(a), callee.Params[i])
				}
			}
			res = callee.Result
		} else {
			if ins.A < 0 || ins.A >= stdlib.NumBuiltins {
				failf("builtin #%d out of range", ins.A)
				break
			}
			if st != nil {
				b := stdlib.ByID(int(ins.A))
				for _, a := range args {
					if a == mixed {
						failf("an argument of %s holds values of different types", b.Name)
						return out
					}
				}
				var err error
				if res, err = b.Signature(args); err != nil {
					failf("%s: %v", b.Name, err)
				} else {
					// The compiler widened: a fixed row's kernel reads the
					// kinds its parameters name.
					for i, p := range b.Params {
						if !types.Equal(args[i], p) {
							failf("argument %d of %s holds %s, want %s", i+1, b.Name, typeName(args[i]), p)
						}
					}
				}
			}
		}
		if ins.Dst >= 0 {
			if st != nil && res == nil {
				failf("keeps the result of a call that has none")
				res = mixed
			}
			write(ins.Dst, res)
		}

	case fReturn:
		switch t := read(ins.A); {
		case v.ci != 0:
			failf("returns a value from a parallel sub-chunk")
		case f.Result == nil:
			failf("returns a value from a function without a result")
		case st != nil && (t == mixed || !types.Equal(t, f.Result)):
			failf("returns %s from a function returning %s", typeName(t), f.Result)
		}

	case fSetIndex:
		// The untyped form also takes a string, and raises when it gets one.
		x, val := read(ins.A), read(ins.C)
		want(ins.B, types.IntType)
		switch {
		case st == nil || (ins.Op == OpSetIndex && x.Kind() == types.String):
		case !x.IsArray():
			failf("operand %s holds %s, want an array", f.reg(ins.A), typeName(x))
		case val == mixed || !types.Equal(val, x.Elem()):
			failf("stores %s into an element of %s", typeName(val), x)
		}

	case fSetIndexK:
		elem := seq(ins.A, false)
		want(ins.B, types.IntType)
		if elem == mixed {
			konst(ins.C)
		} else {
			wantConst(ins.C, elem)
		}

	case fStepJump:
		// The step and the limit are each an int register or constant.
		operand := func(i int32, isConst bool) {
			if isConst {
				wantConst(i, types.IntType)
			} else {
				want(i, types.IntType)
			}
		}
		step, limit := ins.Op.stepConsts()
		want(ins.A, types.IntType)
		operand(ins.B, step)
		operand(ins.C, limit)
		write(ins.A, types.IntType)

	case fArray:
		if ins.C < 0 || int(ins.C) >= len(f.Types) {
			failf("type #%d out of range [0, %d)", ins.C, len(f.Types))
			break
		}
		elem := f.Types[ins.C]
		for i, t := range block(ins.A, ins.B) {
			if st != nil && (t == mixed || !types.Equal(t, elem)) {
				failf("element %d holds %s, want %s", i, typeName(t), elem)
			}
		}
		write(ins.Dst, types.ArrayOf(elem))

	case fForIter:
		// The state is two temporaries: the sequence, which stays where it
		// is (a string is replaced by the array of its characters, and still
		// read here as a string), and the index.
		elem := seq(ins.A, true)
		want(ins.A+1, types.IntType)
		write(ins.Dst, elem)

	case fSpawn:
		if ins.A < 1 || ins.B < 0 || int(ins.A+ins.B) > len(f.Chunks) {
			failf("chunks [%d, %d) out of range [1, %d)", ins.A, ins.A+ins.B, len(f.Chunks))
		}

	case fParFor:
		if ins.A < 1 || int(ins.A) >= len(f.Chunks) {
			failf("chunk %d out of range [1, %d)", ins.A, len(f.Chunks))
		}
		// The induction slot is written in each iteration's window, or in
		// its private cell when the variable is shared.
		elem := seq(ins.B, true)
		if ins.C < 0 || int(ins.C) >= f.NumSlots {
			failf("induction slot %d out of range [0, %d)", ins.C, f.NumSlots)
		} else if c := f.SlotTypes[ins.C]; st != nil && (elem == mixed || !types.Equal(elem, c)) {
			failf("iterates %s into %s, a %s", typeName(elem), f.reg(ins.C), c)
		}

	case fLock:
		if ins.A < 0 || int(ins.A) >= len(v.p.LockNames) {
			failf("lock #%d out of range [0, %d)", ins.A, len(v.p.LockNames))
		}

	case fLoadCell:
		write(ins.Dst, cell(ins.A))

	case fStoreCell:
		if c, t := cell(ins.Dst), read(ins.A); st != nil && c != mixed && (t == mixed || !types.Equal(t, c)) {
			failf("stores %s into %s, a %s", typeName(t), f.cell(ins.Dst), c)
		}
	}
	return out
}

// untypedOp returns the sem operator packed as an untyped opcode in the C
// field of a fused instruction: a comparison, or for arithmetic the one
// untyped operator, string +.
func untypedOp(o Op, compare bool, failf func(string, ...any)) sem.Op {
	if in := o.info(); in.isOp && in.kind == nil && in.form == fBinary && in.op.IsCompare() == compare {
		return in.op
	}
	failf("operand C does not hold an untyped operator: %s", o)
	if compare {
		return sem.Eq
	}
	return sem.Add
}

// canRaise reports whether executing op can produce a positioned runtime
// error of its own (any instruction can be where a step limit trips).
func canRaise(op Op) bool {
	switch in := op.info(); in.form {
	case fCall, fSetIndex, fSetIndexK, fArray, fSpawn, fParFor, fLock:
		return true
	case fBinary, fBinaryK, fBinaryKL:
		return !in.isOp || !in.op.IsCompare() // index, range and arithmetic
	}
	return false
}

func typeNames(ts []*types.Type) string {
	s := ""
	for i, t := range ts {
		if i > 0 {
			s += " or "
		}
		s += t.String()
	}
	return s
}
