// Package bytecode defines Tetra's register-based bytecode instruction
// set and the compiler from checked ASTs to bytecode.
//
// The paper lists a native-code compiler as future work (§VI): "compile
// Tetra code into an efficient executable ... one could write a Tetra
// program, run it through the IDE and step through it in the debugger when
// it is being developed, then compile it to a native executable to run it
// more efficiently." This package plays that role inside the reproduction:
// a compact register machine that removes both the AST-walk dispatch
// overhead and the stack-shuffle overhead of a classic stack VM, while
// keeping the identical parallel runtime semantics (threads, shared cells,
// named locks). The interpreter remains the debuggable path; the VM
// (internal/vm) is the fast path; the two are differentially tested
// against each other.
//
// # Register model
//
// Every instruction is three-address: Ins{Op, Dst, A, B} (plus C for the
// opcodes that need a fourth operand) over one flat register index space:
//
//   - registers [0, NumSlots) are the function's variable slots, assigned
//     by the checker — parameters first, then declared locals. These are
//     the slots the debugger names.
//   - registers [NumSlots, NumSlots+Chunk.NumTemps) are expression
//     temporaries, private to one activation of one chunk. Temporaries
//     are never shared between threads: each execution of a chunk gets a
//     fresh window, so a `for` loop's iteration state inside a
//     `parallel for` body can never race across iterations.
//
// An activation's registers are one window of values and an operand is an
// index into it — in every function. What differs is where variables
// live. A private variable — every variable of a function without a
// parallel construct, and most of one with — lives in its slot register,
// and the compiler evaluates expressions directly into registers: an
// assignment `x = y + z` is one add with Dst=x, and `i = i + 1` becomes a
// single arithmetic instruction reading and writing slot i. A thread body
// reads the private variables of its function from its own window, into
// which the VM copies the spawning activation's slot registers when it
// spawns it. A variable the threads really share (Func.Shared, decided by
// internal/check) lives in a cell, and sharedness is spelled out in the
// code instead of being tested on every operand: a read of x is
// `OpLoadCell tmp, x` at the point the value is needed, a write
// `OpStoreCell x, tmp`, each one atomic access of that cell, and no
// other instruction names x's register. `x = x + 1` is load, add, store:
// two atomic accesses with the addition between them, so two threads
// can lose an update — as Tetra means them to (paper Figure III).
// OpParFor's induction operand names the slot each iteration gets its own
// copy of: its register in the iteration's window, or a private cell when
// the variable is shared.
//
// # Typed opcodes
//
// Tetra is statically typed, and the checker resolves every operator to
// the kernel it runs (ast.Kernel: a sem operator over ints, reals, an
// int/real pair whose int side widens, or generic operands). The compiler
// reads that decision and works out none of its own: at every -O level
// ints run int-typed arithmetic and comparison (add.i, lt.i), reals and
// mixed pairs run the real-typed family (add.r, lt.r) after one toreal of
// the int side, augmented assignment included, and an array is indexed
// array-typed (index.a, setidx.a). A typed opcode's operator is part of the
// opcode, and the VM executes it without looking at an operand's kind.
// Only generic operands keep the untyped opcodes, which go through
// sem.Arith and sem.Compare: string + and the comparisons of strings,
// bools and arrays. At every level the compiler writes a literal operand
// into its operator's constant form (add.ik, mod.rk, arithk) and a
// comparison a branch tests into a compare-jump (jlt.ik, cmpjump).
//
// That no typed opcode ever meets a value of another kind is a property
// of the compiled code, and Verify proves it, with the IR's structural
// rules, by a forward dataflow over each chunk: variable slots start at
// their declared types (Func.SlotTypes; the checker and Compile see to it
// that a variable read before its first assignment holds its type's zero,
// ast.FuncDecl.ZeroSlots, and a thread body's copy holds what the spawner's
// did), temporaries start undefined, paths join at
// jump targets (a register written with two types is "mixed": readable
// where any value will do, never where a type is claimed), and each
// instruction is held to its row:
//
//	const                Dst ← type of Consts[A]
//	move                 A defined                       Dst ← A
//	toreal               A : int | real                  Dst ← real
//	neg                  A : int | real                  Dst ← A
//	not                  A : bool                        Dst ← bool
//	add                  A, B : string                   Dst ← string
//	eq ne                A, B defined, neither a number  Dst ← bool
//	lt le gt ge          A, B : string                   Dst ← bool
//	op.i  op.r           A, B : int (.i) | real (.r)     Dst ← that type; a comparison's, bool
//	op.ik op.rk          A and Consts[B] : int | real    likewise; div, mod: Consts[B] ≠ 0
//	arithk arithkl       C holds add; A and Consts[B] : string  Dst ← string
//	jfalse jtrue         B : bool                        target A in the chunk
//	jop.i jop.r          A, B : int | real               target Dst in the chunk
//	jop.ik jop.rk        A and Consts[B] : int | real    target Dst in the chunk
//	cmpjump cmpkjump     as the untyped comparison in C  target Dst in the chunk
//	index                A : string | [T], B : int       Dst ← string | T
//	index.a              A : [T], B : int                Dst ← T
//	setidx               A : string | [T], B : int, C : T
//	setidx.a             A : [T], B : int, C : T
//	setidx.ak            A : [T], B : int, Consts[C] : T
//	array                temporaries [A, A+B) : Types[C] Dst ← [Types[C]]
//	range                A, B : int                      Dst ← [int]
//	foriter fornext      A : [T] | string, A+1 : int     Dst ← T | string; target B in the chunk
//	stepjlt.ii .ik .ki .kk  A : int, B and C : int, each a register (i) or Consts (k)
//	                                                     A ← int; target Dst in the chunk
//	call                 temporaries [B, B+C) : the parameters of Funcs[A]; Dst ← its result
//	tailcall             as call, with Funcs[A] the function itself and no Dst; chunk 0 only
//	callb                temporaries [B, B+C) : the Params of builtin A's row, or pass its Check; Dst ← its result
//	ret                  A : the function's result; chunk 0 only
//	ldcell               A a shared slot                 Dst ← SlotTypes[A]
//	stcell               Dst a shared slot, A : SlotTypes[Dst]
//	parfor               B : [T] | string, slot C : T | string; chunk A ≥ 1
//	parallel background  chunks [A, A+B) within [1, len(Chunks))
//	lockacq lockrel      A < len(LockNames)
//
// and to the rules every instruction shares: a register operand is inside
// the window and is not a shared slot's; a write to a variable slot has
// the slot's type; a register read has been
// written on every path; Pos parallels Code and an instruction that can
// raise has a valid position; control cannot run off a chunk's end.
//
// Parallel constructs compile to sub-chunks: a parallel block with n child
// statements becomes n consecutive chunks, launched by one OpParallel
// instruction. Loops, conditionals and lock bodies compile inline with
// explicit jumps; the compiler emits the lock releases needed when break,
// continue or return exits a lock block early.
//
// # Loops test at the bottom
//
// A condition compiles to branches: `and`, `or` and `not` never build a
// bool. Every loop tests on entry and again at its bottom, where the test
// branches back to the body: `while b: S` runs as `if b: (S; while b: S)`,
// so its condition is compiled twice, and a for-in loop's bottom test is
// fornext. An iteration is its body and one test, a continue goes to the
// test, and the only backward jump is `while true:`'s. At -O2 an induction
// step joins the test after it (stepjlt).
package bytecode

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/types"
)

// IRVersion identifies the bytecode format. It is folded into compile
// cache keys (internal/core) so that bytecode compiled under an older IR
// can never be replayed by a newer VM in a long-running process: an entry
// written under a different version simply misses. Bump it whenever the
// instruction encoding or register model changes incompatibly.
//
// Version history: 1 = the original stack IR; 2 = the register IR
// (3-address instructions, per-chunk temporaries, call-site IDs); 3 = the
// typed register IR (int- and real-typed opcodes with the operator in the
// opcode, array-typed indexing, variables of shared functions reached
// only through OpLoadCell/OpStoreCell); 4 = a call is an index (no
// call-site id: an instruction is 20 bytes, not 24); 5 = sharedness is
// per slot (Func.Shared): a function with parallel constructs keeps its
// private variables in registers, and a thread body's window starts as a
// copy of its spawner's slot registers; 6 = the checker's kernel picks the
// opcode: a mixed int/real pair widens its int side and runs the real
// family, and the untyped sub, mul, div and mod are gone; 7 = loops test at
// their bottom (fornext, stepjlt, setidx.ak) and a self tail call runs in
// place (tailcall); 8 = no constant-left typed arithmetic (sub.ikl …
// mod.rkl), so the opcodes after it are renumbered, and cmpkjump's C is
// PackCmp's (the constant is always the right operand).
const IRVersion = 8

// Op is a bytecode opcode.
type Op uint8

// The instruction set. Operand meaning per opcode; registers are frame
// slots (< NumSlots) or chunk temporaries (>= NumSlots). Values are dense
// from zero, so the VM's dispatch switch is a jump table.
const (
	OpNop Op = iota

	OpConst  // Dst = Consts[A]
	OpMove   // Dst = reg A
	OpToReal // Dst = int reg A widened to real

	// Generic operands (ast.Generic). The only arithmetic on them is string
	// concatenation, Dst = A + B by sem.Arith.
	OpAdd
	// Untyped comparison of strings, bools or arrays: Dst = bool(A op B),
	// by sem.Compare.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNeg // Dst = -A
	OpNot // Dst = not A

	OpJump        // pc = A
	OpJumpIfFalse // if !reg B: pc = A
	OpJumpIfTrue  // if reg B: pc = A

	// Calls. Arguments live in C consecutive registers starting at B. Dst
	// receives the result, or is -1 when the value is discarded (statement
	// position) or the callee is void. The callee is fixed at compile time:
	// the VM indexes with A and tests nothing.
	OpCall        // call Funcs[A]
	OpCallBuiltin // call builtin A
	OpReturn      // return reg A
	OpReturnNone  // leave the function with no value

	OpIndex    // Dst = reg A [ reg B ]   (string indexing; arrays use OpIndexArr)
	OpSetIndex // reg A [ reg B ] = reg C (raises on a string; arrays use OpSetIndexArr)
	OpArray    // Dst = array of the B registers starting at A, elem type Types[C]
	OpRange    // Dst = [regA .. regB]

	// OpForIter drives for-in loops. Temp A holds the sequence and temp
	// A+1 the iteration index (both private to this activation); Dst is
	// the induction variable. When the index passes the end, jump to
	// B. String sequences are materialized into their runes on first
	// touch, in place, so iteration is rune-correct without per-step
	// decoding.
	OpForIter

	// Parallelism.
	OpParallel   // spawn chunks [A, A+B) each on its own thread; join all
	OpBackground // spawn chunks [A, A+B); do not join
	// OpParFor runs chunk A once per element of sequence reg B, each on
	// its own thread with a private copy of induction slot C; joins all.
	OpParFor

	OpLockAcquire // acquire program lock A
	OpLockRelease // release program lock A

	// Untyped superinstructions, the compiler's constant forms and
	// compare-jumps over generic operands. Each has the source position of
	// the operation that can raise.

	// OpArithConst fuses a constant right operand into a concatenation:
	// Dst = reg A <op C> Consts[B], where C is OpAdd.
	OpArithConst
	// OpArithConstL is the mirrored form: Dst = Consts[B] <op C> reg A.
	OpArithConstL
	// OpCmpJump fuses a comparison with the conditional branch consuming
	// it: evaluate reg A <cmp> reg B where C packs (cmpOp<<1 | sense),
	// and jump to Dst when the result matches sense (1 = jump if true,
	// 0 = jump if false).
	OpCmpJump
	// OpCmpConstJump additionally fuses a constant right operand: it
	// compares reg A <cmp> Consts[B], with C packed as OpCmpJump's.
	OpCmpConstJump

	// Cell access. A variable the threads of a function share
	// (Func.Shared) lives in a cell; these two instructions are the only
	// way code reaches it, each one lock-access-unlock.
	OpLoadCell  // Dst = cell A
	OpStoreCell // cell Dst = reg A

	// Array-typed indexing: reg A is statically an array, so there is no
	// string case.
	OpIndexArr    // Dst = reg A [ reg B ]
	OpSetIndexArr // reg A [ reg B ] = reg C

	// Typed arithmetic, Dst = A op B with both operands int (".i") or both
	// real (".r"). Each family lists its operators in sem's order, which is
	// what kernelOp relies on.
	OpAddInt
	OpSubInt
	OpMulInt
	OpDivInt
	OpModInt
	OpAddReal
	OpSubReal
	OpMulReal
	OpDivReal
	OpModReal
	// Typed comparison, Dst = bool(A op B).
	OpEqInt
	OpNeInt
	OpLtInt
	OpLeInt
	OpGtInt
	OpGeInt
	OpEqReal
	OpNeReal
	OpLtReal
	OpLeReal
	OpGtReal
	OpGeReal

	// Typed superinstructions. Constant right operand,
	// Dst = reg A op Consts[B]; a div or mod of this form has a nonzero
	// constant (a zero one stays an unfused div or mod, which raises).
	OpAddIntK
	OpSubIntK
	OpMulIntK
	OpDivIntK
	OpModIntK
	OpAddRealK
	OpSubRealK
	OpMulRealK
	OpDivRealK
	OpModRealK
	// Typed compare-and-jump: jump to Dst when reg A op reg B holds. The
	// branch sense is folded into the operator (jump-if-false of < is jge).
	OpJeqInt
	OpJneInt
	OpJltInt
	OpJleInt
	OpJgtInt
	OpJgeInt
	OpJeqReal
	OpJneReal
	OpJltReal
	OpJleReal
	OpJgtReal
	OpJgeReal
	// ... against a constant: jump to Dst when reg A op Consts[B] holds.
	OpJeqIntK
	OpJneIntK
	OpJltIntK
	OpJleIntK
	OpJgtIntK
	OpJgeIntK
	OpJeqRealK
	OpJneRealK
	OpJltRealK
	OpJleRealK
	OpJgtRealK
	OpJgeRealK

	// OpForNext is a for-in loop's bottom test, OpForIter with the branch
	// the other way: when the sequence in temp A has an element at the index
	// in temp A+1, Dst takes it and control goes back to the body at B;
	// otherwise it falls through, out of the loop. The compiler emits it at
	// every level.
	OpForNext

	// OpSetIndexArrK is OpSetIndexArr storing a constant:
	// reg A [ reg B ] = Consts[C].
	OpSetIndexArrK

	// Induction step fused into a loop's bottom test (-O2): reg A += step,
	// then jump to Dst when reg A < limit. The step is reg B or Consts[B],
	// the limit reg C or Consts[C]; the suffix names them in that order, i
	// for an int register and k for a constant.
	OpStepJltII
	OpStepJltIK
	OpStepJltKI
	OpStepJltKK

	// OpTailCall is a self call in tail position (-O2): call Funcs[A], the
	// function itself, with the C registers from B as arguments, and return
	// what it returns. The VM runs it in place, in the caller's window.
	OpTailCall

	numOps
)

// form is an opcode's operand layout: which fields are registers read or
// written, which is a jump target, which indexes a table. The optimizer,
// the verifier and the disassembler all work from it.
type form uint8

const (
	fNone      form = iota // no operands
	fConst                 // Dst = Consts[A]
	fUnary                 // Dst = f(reg A)
	fBinary                // Dst = reg A op reg B
	fBinaryK               // Dst = reg A op Consts[B]
	fBinaryKL              // Dst = Consts[B] op reg A
	fJump                  // pc = A
	fJumpIf                // test reg B, pc = A
	fCmpJump               // test reg A op reg B, pc = Dst
	fCmpJumpK              // test reg A op Consts[B], pc = Dst
	fCall                  // Dst = call A with regs [B, B+C)
	fReturn                // return reg A
	fSetIndex              // reg A [ reg B ] = reg C
	fSetIndexK             // reg A [ reg B ] = Consts[C]
	fStepJump              // reg A += reg|Consts B; reg A < reg|Consts C: pc = Dst
	fArray                 // Dst = array of regs [A, A+B), elem type Types[C]
	fForIter               // Dst = next of state regs A, A+1; exhausted (foriter) or not (fornext): pc = B
	fSpawn                 // chunks [A, A+B)
	fParFor                // chunk A over reg B, induction cell C
	fLock                  // lock A
	fLoadCell              // Dst = cell A
	fStoreCell             // cell Dst = reg A
)

// opInfo describes one opcode. kind is the operand type a typed opcode
// claims (nil for untyped ones); op is the operator of the arithmetic and
// comparison families, valid when isOp is set.
type opInfo struct {
	name string
	form form
	kind *types.Type
	op   sem.Op
	isOp bool
}

var opTable = buildOpTable()

func buildOpTable() [numOps]opInfo {
	t := [numOps]opInfo{
		OpNop: {name: "nop"}, OpConst: {name: "const", form: fConst},
		OpMove: {name: "move", form: fUnary}, OpToReal: {name: "toreal", form: fUnary},
		OpNeg: {name: "neg", form: fUnary}, OpNot: {name: "not", form: fUnary},
		OpJump:        {name: "jump", form: fJump},
		OpJumpIfFalse: {name: "jfalse", form: fJumpIf}, OpJumpIfTrue: {name: "jtrue", form: fJumpIf},
		OpCall: {name: "call", form: fCall}, OpCallBuiltin: {name: "callb", form: fCall},
		OpReturn: {name: "ret", form: fReturn}, OpReturnNone: {name: "retnone"},
		OpIndex: {name: "index", form: fBinary}, OpSetIndex: {name: "setidx", form: fSetIndex},
		OpArray: {name: "array", form: fArray}, OpRange: {name: "range", form: fBinary},
		OpForIter: {name: "foriter", form: fForIter}, OpForNext: {name: "fornext", form: fForIter},
		OpParallel: {name: "parallel", form: fSpawn}, OpBackground: {name: "background", form: fSpawn},
		OpParFor:      {name: "parfor", form: fParFor},
		OpLockAcquire: {name: "lockacq", form: fLock}, OpLockRelease: {name: "lockrel", form: fLock},
		OpArithConst: {name: "arithk", form: fBinaryK}, OpArithConstL: {name: "arithkl", form: fBinaryKL},
		OpCmpJump: {name: "cmpjump", form: fCmpJump}, OpCmpConstJump: {name: "cmpkjump", form: fCmpJumpK},
		OpLoadCell: {name: "ldcell", form: fLoadCell}, OpStoreCell: {name: "stcell", form: fStoreCell},
		OpIndexArr: {name: "index.a", form: fBinary}, OpSetIndexArr: {name: "setidx.a", form: fSetIndex},
		OpSetIndexArrK: {name: "setidx.ak", form: fSetIndexK},
		OpStepJltII:    {name: "stepjlt.ii", form: fStepJump}, OpStepJltIK: {name: "stepjlt.ik", form: fStepJump},
		OpStepJltKI: {name: "stepjlt.ki", form: fStepJump}, OpStepJltKK: {name: "stepjlt.kk", form: fStepJump},
		OpTailCall: {name: "tailcall", form: fCall},
	}
	// The operator families: five arithmetic operators from sem.Add, six
	// comparisons from sem.Eq, laid out from first in sem's order.
	family := func(first Op, ops []sem.Op, prefix, suffix string, f form, kind *types.Type) {
		for i, o := range ops {
			t[first+Op(i)] = opInfo{name: prefix + o.String() + suffix, form: f, kind: kind, op: o, isOp: true}
		}
	}
	arith := []sem.Op{sem.Add, sem.Sub, sem.Mul, sem.Div, sem.Mod}
	cmp := []sem.Op{sem.Eq, sem.Ne, sem.Lt, sem.Le, sem.Gt, sem.Ge}
	i, r := types.IntType, types.RealType
	family(OpAdd, arith[:1], "", "", fBinary, nil)
	family(OpEq, cmp, "", "", fBinary, nil)
	family(OpAddInt, arith, "", ".i", fBinary, i)
	family(OpAddReal, arith, "", ".r", fBinary, r)
	family(OpEqInt, cmp, "", ".i", fBinary, i)
	family(OpEqReal, cmp, "", ".r", fBinary, r)
	family(OpAddIntK, arith, "", ".ik", fBinaryK, i)
	family(OpAddRealK, arith, "", ".rk", fBinaryK, r)
	family(OpJeqInt, cmp, "j", ".i", fCmpJump, i)
	family(OpJeqReal, cmp, "j", ".r", fCmpJump, r)
	family(OpJeqIntK, cmp, "j", ".ik", fCmpJumpK, i)
	family(OpJeqRealK, cmp, "j", ".rk", fCmpJumpK, r)
	return t
}

// info returns o's table entry; an opcode outside the set reads as a nop.
func (o Op) info() *opInfo {
	if o < numOps {
		return &opTable[o]
	}
	return &opTable[OpNop]
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o < numOps {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Operator returns the sem operator of an arithmetic or comparison
// opcode, typed or untyped.
func (o Op) Operator() sem.Op { return o.info().op }

// Fused reports whether o is a superinstruction, typed or untyped: a
// constant form or a compare-jump, which the compiler emits at every
// level, or a stepjlt, which -O2 fuses.
func (o Op) Fused() bool {
	switch o.info().form {
	case fBinaryK, fBinaryKL, fCmpJump, fCmpJumpK, fSetIndexK, fStepJump:
		return true
	}
	return false
}

// stepConsts reports which operands of a stepjlt opcode are constants:
// the step (B) and the limit (C).
func (o Op) stepConsts() (step, limit bool) {
	k := o - OpStepJltII
	return k&2 != 0, k&1 != 0
}

// kernelOp returns the register-register opcode that runs kernel k: the
// .i family on ints, the .r family on reals and on a mixed pair (whose int
// side the compiler widens first), and the untyped opcode on generic
// operands, whose only arithmetic is string +.
func kernelOp(k ast.Kernel) Op {
	arith, cmp := OpAddReal, OpEqReal
	switch k.Operands {
	case ast.Ints:
		arith, cmp = OpAddInt, OpEqInt
	case ast.Generic:
		arith, cmp = OpAdd, OpEq
	}
	if k.Op.IsCompare() {
		return cmp + Op(k.Op-sem.Eq)
	}
	return arith + Op(k.Op-sem.Add)
}

// arithConst returns the constant-operand form of arithmetic opcode op and
// its C: a typed opcode's is its .ik or .rk (the constant on the right),
// and string +'s arithk, or arithkl with the constant on the left, which
// carry the operator in C.
func arithConst(op Op, left bool) (Op, int32) {
	switch {
	case op.info().kind != nil:
		return op + (OpAddIntK - OpAddInt), 0
	case left:
		return OpArithConstL, int32(op)
	}
	return OpArithConst, int32(op)
}

// cmpJump returns the compare-jump that runs comparison kernel k and jumps
// when the result is sense, with a constant right operand when k is set,
// and its C. A typed one has the sense folded into its operator, negated
// when false (a jump when < fails is jge); cmpjump and cmpkjump carry
// operator and sense in C.
func cmpJump(kern ast.Kernel, sense, k bool) (Op, int32) {
	if kern.Operands == ast.Generic {
		c := PackCmp(kernelOp(kern), sense)
		if k {
			return OpCmpConstJump, c
		}
		return OpCmpJump, c
	}
	o := kern.Op
	if !sense {
		o = negated(o)
	}
	op := OpJeqReal + Op(o-sem.Eq)
	if kern.Operands == ast.Ints {
		op = OpJeqInt + Op(o-sem.Eq)
	}
	if k {
		op += OpJeqIntK - OpJeqInt
	}
	return op, 0
}

// negated maps a comparison operator to the one that holds exactly when it
// does not, exact on reals too, NaN included, under sem.Compare's ordering
// (see sem.CompareReal).
func negated(o sem.Op) sem.Op {
	return [...]sem.Op{sem.Eq: sem.Ne, sem.Ne: sem.Eq, sem.Lt: sem.Ge, sem.Ge: sem.Lt, sem.Le: sem.Gt, sem.Gt: sem.Le}[o]
}

// target returns the field of ins that holds a jump target, or nil when
// ins does not jump.
func (ins *Instr) target() *int32 {
	switch ins.Op.info().form {
	case fJump, fJumpIf:
		return &ins.A
	case fCmpJump, fCmpJumpK, fStepJump:
		return &ins.Dst
	case fForIter:
		return &ins.B
	}
	return nil
}

// Superinstruction C-field packing helpers.

// PackCmp packs a comparison opcode and jump sense for OpCmpJump and
// OpCmpConstJump.
func PackCmp(cmp Op, sense bool) int32 {
	c := int32(cmp) << 1
	if sense {
		c |= 1
	}
	return c
}

// UnpackCmp reverses PackCmp.
func UnpackCmp(c int32) (cmp Op, sense bool) {
	return Op(c >> 1), c&1 != 0
}
