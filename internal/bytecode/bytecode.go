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
// live. A flat function (no parallel construct) keeps them in their slot
// registers, and the compiler evaluates expressions directly into
// registers: an assignment `x = y + z` is one add with Dst=x, and
// `i = i + 1` becomes a single arithmetic instruction reading and writing
// slot i. A shared function (Func.Shared: it contains `parallel`,
// `background` or `parallel for`) keeps each variable in a cell its
// threads share, and sharedness is spelled out in the code instead of
// being tested on every operand: a read of x is `OpLoadCell tmp, x` at
// the point the value is needed, a write `OpStoreCell x, tmp`, each one
// lock-access-unlock of that cell, and every other instruction names
// temporaries only. `x = x + 1` is load, add, store: two critical
// sections with the addition outside both, so two threads can lose an
// update — as Tetra means them to (paper Figure III). The slot registers
// of a shared function's window are unused; OpParFor's induction operand
// is the one other place a slot number appears, naming the cell each
// iteration gets a private copy of.
//
// # Typed opcodes
//
// Tetra is statically typed, and the checker leaves every expression's
// type on the AST. The compiler reads it and emits, at every -O level,
// int-typed and real-typed arithmetic and comparison (add.i, lt.r;
// augmented assignment included) and array-typed indexing (index.a,
// setidx.a). A typed opcode's operator is part of the opcode, and the VM
// executes it without looking at an operand's kind. The untyped opcodes
// remain where the checker typed the two operands differently (int with
// real, which sem.Arith promotes), for strings, and as the place a zero
// divisor is reported; they go through sem.Arith and sem.Compare as
// before. The optimizer (optimize.go) fuses typed instructions into typed
// superinstructions (add.ik, mod.rk, jlt.ik) at -O2.
//
// That no typed opcode ever meets a value of another kind is a property
// of the compiled code, and Verify proves it, with the IR's structural
// rules, by a forward dataflow over each chunk: variable slots start at
// their declared types (Func.SlotTypes; the checker and Compile see to it
// that a variable read before its first assignment holds its type's zero,
// ast.FuncDecl.ZeroSlots), temporaries start undefined, paths join at
// jump targets (a register written with two types is "mixed": readable
// where any value will do, never where a type is claimed), and each
// instruction is held to its row:
//
//	const                Dst ← type of Consts[A]
//	move                 A defined                       Dst ← A
//	toreal               A : int | real                  Dst ← real
//	neg                  A : int | real                  Dst ← A
//	not                  A : bool                        Dst ← bool
//	add sub mul div mod  A, B : int | real               Dst ← int if both are, else real
//	add                  A, B : string                   Dst ← string
//	eq ne                A, B defined                    Dst ← bool
//	lt le gt ge          A, B : int | real, or string    Dst ← bool
//	op.i  op.r           A, B : int (.i) | real (.r)     Dst ← that type; a comparison's, bool
//	op.ik op.rk          A and Consts[B] : int | real    likewise; div, mod: Consts[B] ≠ 0
//	op.ikl op.rkl        Consts[B] and A : int | real    likewise
//	arithk arithkl       as the untyped operator in C, on A and Consts[B]
//	jfalse jtrue         B : bool                        target A in the chunk
//	jop.i jop.r          A, B : int | real               target Dst in the chunk
//	jop.ik jop.rk        A and Consts[B] : int | real    target Dst in the chunk
//	cmpjump cmpkjump     as the untyped comparison in C  target Dst in the chunk
//	index                A : string | [T], B : int       Dst ← string | T
//	index.a              A : [T], B : int                Dst ← T
//	setidx               A : string | [T], B : int, C : T
//	setidx.a             A : [T], B : int, C : T
//	array                temporaries [A, A+B) : Types[C] Dst ← [Types[C]]
//	range                A, B : int                      Dst ← [int]
//	foriter              A : [T] | string, A+1 : int     Dst ← T | string; exit B in the chunk
//	call                 temporaries [B, B+C) : the parameters of Funcs[A]; Dst ← its result
//	callb                temporaries [B, B+C) : the Params of builtin A's row, or pass its Check; Dst ← its result
//	ret                  A : the function's result; chunk 0 only
//	ldcell               A a cell of a shared function   Dst ← SlotTypes[A]
//	stcell               A : SlotTypes[Dst]
//	parfor               B : [T] | string, cell C : T | string; chunk A ≥ 1
//	parallel background  chunks [A, A+B) within [1, len(Chunks)); shared functions only
//	lockacq lockrel      A < len(LockNames)
//
// and to the rules every instruction shares: a register operand is inside
// the window; in a shared function it is a temporary; a write to a flat
// function's variable slot has the slot's type; a register read has been
// written on every path; Pos parallels Code and an instruction that can
// raise has a valid position; control cannot run off a chunk's end.
//
// Parallel constructs compile to sub-chunks: a parallel block with n child
// statements becomes n consecutive chunks, launched by one OpParallel
// instruction. Loops, conditionals and lock bodies compile inline with
// explicit jumps; the compiler emits the lock releases needed when break,
// continue or return exits a lock block early.
package bytecode

import (
	"fmt"

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
// call-site id: an instruction is 20 bytes, not 24).
const IRVersion = 4

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

	// Untyped arithmetic: Dst = A op B, evaluated by sem.Arith on whatever
	// kinds the operands hold. The compiler emits these where the checker
	// typed the operands differently (int with real) or as strings; they
	// are also where a zero divisor is reported. Division and modulo raise
	// positioned runtime errors.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	// Untyped comparison: Dst = bool(A op B), by sem.Compare.
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
	// its own thread with a private cell for induction slot C; joins all.
	OpParFor

	OpLockAcquire // acquire program lock A
	OpLockRelease // release program lock A

	// Untyped superinstructions, produced only by the optimizer
	// (optimize.go) at -O2 for operands of mixed kind, strings and constant
	// zero divisors. Each preserves the source position of the operation
	// that can raise, so runtime errors report exactly what -O0 reports.

	// OpArithConst fuses a constant right operand into arithmetic:
	// Dst = reg A <op C> Consts[B].
	OpArithConst
	// OpArithConstL is the mirrored form for non-commutative operators:
	// Dst = Consts[B] <op C> reg A.
	OpArithConstL
	// OpCmpJump fuses a comparison with the conditional branch consuming
	// it: evaluate reg A <cmp> reg B where C packs (cmpOp<<1 | sense),
	// and jump to Dst when the result matches sense (1 = jump if true,
	// 0 = jump if false).
	OpCmpJump
	// OpCmpConstJump additionally fuses a constant operand:
	// C packs (cmpOp<<2 | side<<1 | sense); side 0 compares
	// reg A <cmp> Consts[B], side 1 compares Consts[B] <cmp> reg A.
	OpCmpConstJump

	// Cell access. A function with parallel constructs (Func.Shared) keeps
	// its variables in cells its threads share; these two instructions are
	// the only way its code reaches them, each one lock-access-unlock.
	OpLoadCell  // Dst = cell A
	OpStoreCell // cell Dst = reg A

	// Array-typed indexing: reg A is statically an array, so there is no
	// string case.
	OpIndexArr    // Dst = reg A [ reg B ]
	OpSetIndexArr // reg A [ reg B ] = reg C

	// Typed arithmetic, Dst = A op B with both operands statically int
	// (".i") or both real (".r"). Each family lists its operators in the
	// order of the untyped one above, which is what typed() relies on.
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

	// Typed superinstructions (-O2). Constant right operand,
	// Dst = reg A op Consts[B]; a div or mod of this form has a nonzero
	// constant (a zero one stays untyped, where the error is raised).
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
	// Constant left operand of a non-commutative operator,
	// Dst = Consts[B] op reg A.
	OpSubIntKL
	OpDivIntKL
	OpModIntKL
	OpSubRealKL
	OpDivRealKL
	OpModRealKL
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
	// ... against a constant: jump to Dst when reg A op Consts[B] holds. A
	// constant left operand is folded by mirroring the operator.
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
	fArray                 // Dst = array of regs [A, A+B), elem type Types[C]
	fForIter               // Dst = next of state regs A, A+1; exhausted: pc = B
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
		OpForIter:  {name: "foriter", form: fForIter},
		OpParallel: {name: "parallel", form: fSpawn}, OpBackground: {name: "background", form: fSpawn},
		OpParFor:      {name: "parfor", form: fParFor},
		OpLockAcquire: {name: "lockacq", form: fLock}, OpLockRelease: {name: "lockrel", form: fLock},
		OpArithConst: {name: "arithk", form: fBinaryK}, OpArithConstL: {name: "arithkl", form: fBinaryKL},
		OpCmpJump: {name: "cmpjump", form: fCmpJump}, OpCmpConstJump: {name: "cmpkjump", form: fCmpJumpK},
		OpLoadCell: {name: "ldcell", form: fLoadCell}, OpStoreCell: {name: "stcell", form: fStoreCell},
		OpIndexArr: {name: "index.a", form: fBinary}, OpSetIndexArr: {name: "setidx.a", form: fSetIndex},
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
	nonComm := []sem.Op{sem.Sub, sem.Div, sem.Mod}
	i, r := types.IntType, types.RealType
	family(OpAdd, arith, "", "", fBinary, nil)
	family(OpEq, cmp, "", "", fBinary, nil)
	family(OpAddInt, arith, "", ".i", fBinary, i)
	family(OpAddReal, arith, "", ".r", fBinary, r)
	family(OpEqInt, cmp, "", ".i", fBinary, i)
	family(OpEqReal, cmp, "", ".r", fBinary, r)
	family(OpAddIntK, arith, "", ".ik", fBinaryK, i)
	family(OpAddRealK, arith, "", ".rk", fBinaryK, r)
	family(OpSubIntKL, nonComm, "", ".ikl", fBinaryKL, i)
	family(OpSubRealKL, nonComm, "", ".rkl", fBinaryKL, r)
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

// Fused reports whether o is a superinstruction, typed or untyped: an
// opcode only the optimizer's fusion phase emits, at -O2.
func (o Op) Fused() bool {
	switch o.info().form {
	case fBinaryK, fBinaryKL, fCmpJump, fCmpJumpK:
		return true
	}
	return false
}

// isArith and isCompare report whether o is a register-register
// arithmetic or comparison instruction, typed or untyped — the ones
// fusion consumes.
func (o Op) isArith() bool {
	in := o.info()
	return in.isOp && in.form == fBinary && !in.op.IsCompare()
}

func (o Op) isCompare() bool {
	in := o.info()
	return in.isOp && in.form == fBinary && in.op.IsCompare()
}

// typed returns the typed twin of an untyped arithmetic or comparison
// opcode for operands that are both int or both real, and o itself for
// any other pairing — mixed int and real, strings, bools, arrays — which
// stays with sem.Arith and sem.Compare.
func typed(o Op, l, r *types.Type) Op {
	if l.Kind() != r.Kind() || !l.IsNumeric() {
		return o
	}
	first, firstInt, firstReal := OpAdd, OpAddInt, OpAddReal
	if o >= OpEq {
		first, firstInt, firstReal = OpEq, OpEqInt, OpEqReal
	}
	if l.Kind() == types.Int {
		return firstInt + o - first
	}
	return firstReal + o - first
}

// negated maps a comparison operator to the one that holds exactly when it
// does not, and mirrored to the one that holds when the operands are
// swapped. Both are exact on reals too, NaN included, under sem.Compare's
// ordering (see sem.CompareReal).
func negated(o sem.Op) sem.Op {
	return [...]sem.Op{sem.Eq: sem.Ne, sem.Ne: sem.Eq, sem.Lt: sem.Ge, sem.Ge: sem.Lt, sem.Le: sem.Gt, sem.Gt: sem.Le}[o]
}

func mirrored(o sem.Op) sem.Op {
	return [...]sem.Op{sem.Eq: sem.Eq, sem.Ne: sem.Ne, sem.Lt: sem.Gt, sem.Gt: sem.Lt, sem.Le: sem.Ge, sem.Ge: sem.Le}[o]
}

// target returns the field of ins that holds a jump target, or nil when
// ins does not jump.
func (ins *Instr) target() *int32 {
	switch ins.Op.info().form {
	case fJump, fJumpIf:
		return &ins.A
	case fCmpJump, fCmpJumpK:
		return &ins.Dst
	case fForIter:
		return &ins.B
	}
	return nil
}

// Superinstruction C-field packing helpers.

// PackCmp packs a comparison opcode and jump sense for OpCmpJump.
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

// PackCmpConst packs a comparison opcode, which side the constant is on
// (false = constant is the right operand), and the jump sense for
// OpCmpConstJump.
func PackCmpConst(cmp Op, constLeft, sense bool) int32 {
	c := int32(cmp) << 2
	if constLeft {
		c |= 2
	}
	if sense {
		c |= 1
	}
	return c
}

// UnpackCmpConst reverses PackCmpConst.
func UnpackCmpConst(c int32) (cmp Op, constLeft, sense bool) {
	return Op(c >> 2), c&2 != 0, c&1 != 0
}
