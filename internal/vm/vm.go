// Package vm executes Tetra register bytecode (internal/bytecode) — the
// reproduction's stand-in for the paper's planned native-code compiler
// (§VI). It keeps the interpreter's parallel runtime semantics exactly,
// because both run on the same thread runtime (internal/rt): parallel
// chunks run on goroutines sharing the enclosing frame's cells,
// parallel-for iterations get a private induction cell, background chunks
// are not joined before the spawning statement continues (though Run joins
// them before returning), and lock instructions hit the runtime's named
// lock table, whose waiters park interruptibly and which refuses a wait
// that would close a cycle: a deadlocked program ends with the same
// "deadlock detected" diagnostic on both engines, unless
// rt.Config.NoDeadlockDetection asks for the hang.
//
// # Registers and call frames
//
// An activation's registers are one window of values — variable slots
// [0, NumSlots) and the chunk's temporaries above them — and the dispatch
// loop indexes it directly: an operand is regs[i], in every function,
// with no test of what kind of register i is. The window is claimed from a
// register stack private to the executing thread (an rt.Stack, like the
// interpreter's cells) and handed back, zeroed, on return, and the
// dispatch loop stays where it is: a call to a flat function writes a
// record of the caller in place, field by field, into the next slot of the
// thread's frame stack and continues in the callee; a return pops it,
// clearing only the fields that pin memory. Such a call therefore
// allocates nothing, and the arguments are copied once, element by
// element, from the caller's argument temporaries into the callee's
// parameter slots.
//
// A function containing parallelism keeps one mutex-guarded cell per
// variable, on the heap (threads of a `parallel` block share them,
// `background` threads may outlive the activation, and `parallel for`
// gives each iteration a private cell for the induction variable). Its
// code reaches them through two instructions only, OpLoadCell and
// OpStoreCell, which the compiler emits wherever a variable is read or
// written; everything else in it operates on temporaries, which are a
// window on the executing thread's stack like any other — the body's, a
// spawned thread's sub-chunk's, each parallel-for iteration's on its
// worker's stack. So there is one dispatch loop and one register file:
// "shared" is a property of five opcodes (the two cell accesses and the
// three that spawn threads over the cells), not of the operand path.
//
// # Typed dispatch
//
// internal/check knows every expression's type, and the compiler carries
// it into the opcode: add.i, lt.r, mod.ik, jlt.ik, index.a. A typed case
// below reads its operands' payloads without testing their kinds and
// evaluates through sem's kernels (ArithInt, ArithReal, CompareInt,
// CompareReal, and DivInt/ModInt/DivReal/ModReal where a register divisor
// may be zero) with a constant operator, which the Go compiler inlines to
// the one machine operation, so internal/sem still owns every result and
// every error's wording. Nothing here re-checks that a register holds the
// kind its opcode names: bytecode.Verify proves it of what Compile and
// the optimizer emit, and Call, the one door by which values come in from
// outside, checks types at the door. The untyped opcodes (operands of
// mixed kind, strings, a constant zero divisor) go through sem.Arith and
// sem.Compare.
//
// A call is an index: Tetra has no first-class functions and no
// redefinition, so OpCall enters prog.Funcs[A] and OpCallBuiltin evaluates
// stdlib.ByID(A). That the index is in range, that the argument count is
// the callee's, and that only a call with a result names a destination are
// again Verify's to prove, not the loop's to test.
//
// The VM intentionally omits the step hook, the tracer and the race
// tooling built on it: those belong to the development path (the
// interpreter, which the debugger drives), while the VM is the "run it
// fast" path. Differential tests assert the two backends produce identical
// program behaviour.
//
// Unlike the interpreter's statement-boundary checks, the VM consults the
// resource governor per instruction, and additionally re-checks the stop
// flag on taken backward branches (loop back-edges, which at -O2 are the
// rotated loop's compare-and-jump) so Cancel can interrupt a tight loop
// even when no governor is attached.
package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/value"
)

// VM executes one compiled program.
type VM struct {
	prog  *bytecode.Program
	guard *guard.Governor // consulted once per executed instruction
	env   *stdlib.Env
	rt    *rt.Runtime

	byName map[string]int // function name → index in prog.Funcs, for Call
}

// New returns a VM that runs the compiled program as cfg says, minus what
// the fast path omits: nothing here reads Step or TraceVars, and the runtime
// is not given the Tracer or CountWork, so it emits no events either.
func New(prog *bytecode.Program, cfg rt.Config) *VM {
	cfg.Tracer, cfg.CountWork = nil, false
	r := rt.New(cfg, prog.LockNames)
	m := &VM{prog: prog, guard: r.Guard(), env: r.Env(), rt: r}
	m.byName = make(map[string]int, len(prog.Funcs))
	for i, f := range prog.Funcs {
		m.byName[f.Name] = i
	}
	return m
}

// Run executes the program's main function.
func (m *VM) Run() error {
	if m.prog.MainIndex < 0 {
		return fmt.Errorf("program has no main function")
	}
	_, err := m.run(m.prog.Funcs[m.prog.MainIndex], nil)
	return err
}

// Call invokes a named function with the given arguments, converted to the
// parameter types as a compiled call site would (int widens to real). An
// argument that is then not of its parameter's type is an error: typed
// code does not look at kinds again.
func (m *VM) Call(name string, args ...value.Value) (value.Value, error) {
	idx, ok := m.byName[name]
	if !ok {
		return value.Value{}, fmt.Errorf("no function named %s", name)
	}
	fn := m.prog.Funcs[idx]
	if len(args) != len(fn.Params) {
		return value.Value{}, fmt.Errorf("%s expects %d argument(s), got %d", name, len(fn.Params), len(args))
	}
	conv := make([]value.Value, len(args))
	for i, a := range args {
		var err error
		if conv[i], err = value.Bind(a, fn.SlotNames[i], fn.Params[i]); err != nil {
			return value.Value{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	return m.run(fn, conv)
}

// run calls fn on a new main thread and returns once the background
// threads have been joined.
func (m *VM) run(fn *bytecode.Func, args []value.Value) (value.Value, error) {
	t := &thread{vm: m}
	var v value.Value
	err := m.rt.Main(&t.Thread, func() (err error) {
		v, err = t.call(fn, args)
		return err
	})
	if err != nil {
		return value.Value{}, err
	}
	return v, nil
}

// Cancel requests that all running threads stop: at the next call, loop
// back-edge or for-iteration — or at the very next instruction when a
// governor is attached. This is the same contract as Interp.Cancel.
func (m *VM) Cancel() { m.rt.Cancel() }

type thread struct {
	rt.Thread // identity and step accounting; the runtime fills it in
	vm        *VM
	depth     int

	// Every activation on this thread takes its registers from stack.
	stack rt.Stack[value.Value]
	// frames holds one record per flat call in progress inside exec.
	frames []frame
}

// frame is what a call to a flat function saves: the caller's function,
// chunk, call instruction, registers and cells, and the stack top to go
// back to when the callee's window is released.
type frame struct {
	fn    *bytecode.Func
	ch    *bytecode.Chunk
	pc    int
	regs  []value.Value
	cells []*value.Cell
	sp    int
}

// newCells allocates the variable cells of one activation of a function
// with parallel constructs. They live on the heap because the threads the
// activation spawns share them, and a background thread may still use
// them after the activation has returned.
func newCells(fn *bytecode.Func) []*value.Cell {
	backing := make([]value.Cell, fn.NumSlots)
	cells := make([]*value.Cell, fn.NumSlots)
	for i := range backing {
		cells[i] = &backing[i]
	}
	return cells
}

// call runs fn on this thread from outside the dispatch loop: the thread's
// entry function, and any function with parallel constructs. The recursion
// bound is checked at OpCall, where the call site's position is at hand.
func (t *thread) call(fn *bytecode.Func, args []value.Value) (value.Value, error) {
	t.depth++
	body := &fn.Chunks[0]
	w, sp := t.stack.Claim(fn.NumSlots + body.NumTemps)
	var cells []*value.Cell
	if fn.Shared {
		// No other thread can see the cells before the body runs.
		cells = newCells(fn)
		for i := range args {
			cells[i].StoreLocal(args[i])
		}
	} else {
		copy(w, args)
	}
	v, err := t.exec(fn, body, w, cells)
	t.stack.Release(w, sp)
	t.depth--
	return v, err
}

// runChunk runs a parallel sub-chunk of fn over cells, with a window of
// its own from this thread's stack, sized like any other activation's: a
// sub-chunk's temporaries are numbered above the function's slots, and a
// call without arguments still slices an empty block there.
func (t *thread) runChunk(fn *bytecode.Func, ch *bytecode.Chunk, cells []*value.Cell) error {
	w, sp := t.stack.Claim(fn.NumSlots + ch.NumTemps)
	_, err := t.exec(fn, ch, w, cells)
	t.stack.Release(w, sp)
	return err
}

// exec runs chunk ch of fn over the window regs until it returns, and
// delivers its result: the returned value, or the result type's zero when
// a value-returning function's body falls off its end. cells are the
// variables of a function with parallel constructs, nil for a flat one;
// only the cell and spawn instructions touch them.
//
// Calls to flat functions do not recurse into exec. OpCall saves the
// caller in a frame record, claims the callee's window, copies the
// arguments into it and goes on dispatching in the callee; a return
// releases the window and resumes the saved caller. Only the return that
// finds the record stack where this exec started leaves it. An error
// leaves it at once, records and windows unreleased: a thread that fails
// runs nothing more, and its stack goes with it.
//
// A typed case trusts the kinds its opcode names — bytecode.Verify is the
// proof — and evaluates through sem's kernels with a constant operator,
// which the compiler inlines to the one machine operation.
func (t *thread) exec(fn *bytecode.Func, ch *bytecode.Chunk, regs []value.Value, cells []*value.Cell) (value.Value, error) {
	base := len(t.frames)
	g := t.vm.guard
	pc := 0
	// Dispatch re-enters here whenever a call or a return switched fn, ch,
	// regs and pc to another activation, so that inside the loop the code and
	// the constant pool are loop-invariant.
activation:
	consts := fn.Consts
	code := ch.Code
	for ; pc < len(code); pc++ {
		if g != nil {
			// Batched fuel accounting: one local increment per instruction,
			// one governor sync per guard.StepBatch instructions.
			t.Pending++
			if t.Pending >= guard.StepBatch {
				if err := t.vm.rt.Flush(&t.Thread, ch.Pos[pc]); err != nil {
					return value.Value{}, err
				}
			}
		}
		ins := &code[pc]
		switch ins.Op {
		case bytecode.OpNop:

		case bytecode.OpConst:
			regs[ins.Dst] = consts[ins.A]
		case bytecode.OpMove:
			regs[ins.Dst] = regs[ins.A]
		case bytecode.OpToReal:
			regs[ins.Dst] = sem.ToReal(regs[ins.A])
		case bytecode.OpLoadCell:
			regs[ins.Dst] = cells[ins.A].Load()
		case bytecode.OpStoreCell:
			cells[ins.Dst].Store(regs[ins.A])

		// Typed arithmetic. A zero divisor in a register is sem's error; a
		// constant divisor is not zero (the optimizer leaves that one to
		// OpArithConst).
		case bytecode.OpAddInt:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Add, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpSubInt:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Sub, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpMulInt:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Mul, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpDivInt:
			v, err := sem.DivInt(regs[ins.A].Int(), regs[ins.B].Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewInt(v)
		case bytecode.OpModInt:
			v, err := sem.ModInt(regs[ins.A].Int(), regs[ins.B].Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewInt(v)
		case bytecode.OpAddReal:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Add, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpSubReal:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Sub, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpMulReal:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Mul, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpDivReal:
			v, err := sem.DivReal(regs[ins.A].Real(), regs[ins.B].Real())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewReal(v)
		case bytecode.OpModReal:
			v, err := sem.ModReal(regs[ins.A].Real(), regs[ins.B].Real())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewReal(v)

		case bytecode.OpAddIntK:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Add, regs[ins.A].Int(), consts[ins.B].Int()))
		case bytecode.OpSubIntK:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Sub, regs[ins.A].Int(), consts[ins.B].Int()))
		case bytecode.OpMulIntK:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Mul, regs[ins.A].Int(), consts[ins.B].Int()))
		case bytecode.OpDivIntK:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Div, regs[ins.A].Int(), consts[ins.B].Int()))
		case bytecode.OpModIntK:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Mod, regs[ins.A].Int(), consts[ins.B].Int()))
		case bytecode.OpAddRealK:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Add, regs[ins.A].Real(), consts[ins.B].Real()))
		case bytecode.OpSubRealK:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Sub, regs[ins.A].Real(), consts[ins.B].Real()))
		case bytecode.OpMulRealK:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Mul, regs[ins.A].Real(), consts[ins.B].Real()))
		case bytecode.OpDivRealK:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Div, regs[ins.A].Real(), consts[ins.B].Real()))
		case bytecode.OpModRealK:
			v, _ := sem.ModReal(regs[ins.A].Real(), consts[ins.B].Real())
			regs[ins.Dst] = value.NewReal(v)

		case bytecode.OpSubIntKL:
			regs[ins.Dst] = value.NewInt(sem.ArithInt(sem.Sub, consts[ins.B].Int(), regs[ins.A].Int()))
		case bytecode.OpDivIntKL:
			v, err := sem.DivInt(consts[ins.B].Int(), regs[ins.A].Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewInt(v)
		case bytecode.OpModIntKL:
			v, err := sem.ModInt(consts[ins.B].Int(), regs[ins.A].Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewInt(v)
		case bytecode.OpSubRealKL:
			regs[ins.Dst] = value.NewReal(sem.ArithReal(sem.Sub, consts[ins.B].Real(), regs[ins.A].Real()))
		case bytecode.OpDivRealKL:
			v, err := sem.DivReal(consts[ins.B].Real(), regs[ins.A].Real())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewReal(v)
		case bytecode.OpModRealKL:
			v, err := sem.ModReal(consts[ins.B].Real(), regs[ins.A].Real())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = value.NewReal(v)

		// Untyped arithmetic: operands of different kinds, strings, and the
		// constant zero divisor.
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			v, err := t.arith(ins.Op, regs[ins.A], regs[ins.B], &ch.Pos[pc])
			if err != nil {
				return value.Value{}, err
			}
			regs[ins.Dst] = v
		case bytecode.OpArithConst:
			v, err := t.arith(bytecode.Op(ins.C), regs[ins.A], consts[ins.B], &ch.Pos[pc])
			if err != nil {
				return value.Value{}, err
			}
			regs[ins.Dst] = v
		case bytecode.OpArithConstL:
			v, err := t.arith(bytecode.Op(ins.C), consts[ins.B], regs[ins.A], &ch.Pos[pc])
			if err != nil {
				return value.Value{}, err
			}
			regs[ins.Dst] = v

		case bytecode.OpNeg:
			regs[ins.Dst] = sem.Neg(regs[ins.A])
		case bytecode.OpNot:
			regs[ins.Dst] = sem.Not(regs[ins.A])

		case bytecode.OpEqInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Eq, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpNeInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Ne, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpLtInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Lt, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpLeInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Le, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpGtInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Gt, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpGeInt:
			regs[ins.Dst] = value.NewBool(sem.CompareInt(sem.Ge, regs[ins.A].Int(), regs[ins.B].Int()))
		case bytecode.OpEqReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Eq, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpNeReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Ne, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpLtReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Lt, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpLeReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Le, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpGtReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Gt, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpGeReal:
			regs[ins.Dst] = value.NewBool(sem.CompareReal(sem.Ge, regs[ins.A].Real(), regs[ins.B].Real()))
		case bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			regs[ins.Dst] = value.NewBool(sem.Compare(ins.Op.Operator(), regs[ins.A], regs[ins.B]))

		case bytecode.OpJump:
			// A backward jump is a loop back-edge: re-check the stop flag
			// so Cancel and cross-thread errors interrupt tight loops.
			if int(ins.A) <= pc && t.vm.rt.Stopped() {
				return value.Value{}, rt.ErrStopped
			}
			pc = int(ins.A) - 1
		case bytecode.OpJumpIfFalse:
			// Jump threading can turn conditional jumps into back-edges, so
			// taken backward branches re-check the stop flag too.
			if !regs[ins.B].Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.A) - 1
			}
		case bytecode.OpJumpIfTrue:
			if regs[ins.B].Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.A) - 1
			}

		// Compare-and-jump (optimizer): the target is Dst, the branch is
		// taken at the label below the switch.
		case bytecode.OpJeqInt:
			if sem.CompareInt(sem.Eq, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJneInt:
			if sem.CompareInt(sem.Ne, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJltInt:
			if sem.CompareInt(sem.Lt, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJleInt:
			if sem.CompareInt(sem.Le, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJgtInt:
			if sem.CompareInt(sem.Gt, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJgeInt:
			if sem.CompareInt(sem.Ge, regs[ins.A].Int(), regs[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJeqReal:
			if sem.CompareReal(sem.Eq, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJneReal:
			if sem.CompareReal(sem.Ne, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJltReal:
			if sem.CompareReal(sem.Lt, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJleReal:
			if sem.CompareReal(sem.Le, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJgtReal:
			if sem.CompareReal(sem.Gt, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJgeReal:
			if sem.CompareReal(sem.Ge, regs[ins.A].Real(), regs[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJeqIntK:
			if sem.CompareInt(sem.Eq, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJneIntK:
			if sem.CompareInt(sem.Ne, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJltIntK:
			if sem.CompareInt(sem.Lt, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJleIntK:
			if sem.CompareInt(sem.Le, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJgtIntK:
			if sem.CompareInt(sem.Gt, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJgeIntK:
			if sem.CompareInt(sem.Ge, regs[ins.A].Int(), consts[ins.B].Int()) {
				goto jump
			}
		case bytecode.OpJeqRealK:
			if sem.CompareReal(sem.Eq, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJneRealK:
			if sem.CompareReal(sem.Ne, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJltRealK:
			if sem.CompareReal(sem.Lt, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJleRealK:
			if sem.CompareReal(sem.Le, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJgtRealK:
			if sem.CompareReal(sem.Gt, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpJgeRealK:
			if sem.CompareReal(sem.Ge, regs[ins.A].Real(), consts[ins.B].Real()) {
				goto jump
			}
		case bytecode.OpCmpJump:
			// Untyped: C packs the operator and the sense to jump on.
			cmp, sense := bytecode.UnpackCmp(ins.C)
			if sem.Compare(cmp.Operator(), regs[ins.A], regs[ins.B]) == sense {
				goto jump
			}
		case bytecode.OpCmpConstJump:
			cmp, constLeft, sense := bytecode.UnpackCmpConst(ins.C)
			l, r := regs[ins.A], consts[ins.B]
			if constLeft {
				l, r = r, l
			}
			if sem.Compare(cmp.Operator(), l, r) == sense {
				goto jump
			}

		case bytecode.OpCall:
			if t.vm.rt.Stopped() {
				return value.Value{}, rt.ErrStopped
			}
			if t.depth >= rt.MaxCallDepth {
				return value.Value{}, rt.Errorf(ch.Pos[pc], "call stack exhausted (recursion deeper than %d)", rt.MaxCallDepth)
			}
			callee := t.vm.prog.Funcs[ins.A]
			args := regs[ins.B : ins.B+ins.C]
			if callee.Shared {
				v, err := t.call(callee, args)
				if err != nil {
					return value.Value{}, err
				}
				if ins.Dst >= 0 {
					regs[ins.Dst] = v
				}
				continue
			}
			// Flat callee: its window takes the arguments straight from the
			// caller's argument temporaries, and dispatch moves into it. The
			// caller's record is written in place, field by field: appending
			// a composite literal builds it on exec's frame and copies it.
			body := &callee.Chunks[0]
			w, sp := t.stack.Claim(callee.NumSlots + body.NumTemps)
			for i := range args {
				w[i] = args[i]
			}
			n := len(t.frames)
			if n == cap(t.frames) {
				t.frames = append(t.frames, frame{})
			}
			t.frames = t.frames[:n+1]
			fr := &t.frames[n]
			fr.fn, fr.ch, fr.pc, fr.regs, fr.cells, fr.sp = fn, ch, pc, regs, cells, sp
			t.depth++
			fn, ch, regs, cells, pc = callee, body, w, nil, 0
			goto activation

		case bytecode.OpCallBuiltin:
			v, err := stdlib.ByID(int(ins.A)).Eval(t.vm.env, regs[ins.B:ins.B+ins.C])
			if err != nil {
				return value.Value{}, rt.Errorf(ch.Pos[pc], "%v", err)
			}
			if ins.Dst >= 0 {
				regs[ins.Dst] = v
			}

		case bytecode.OpReturn, bytecode.OpReturnNone:
			var v value.Value
			if ins.Op == bytecode.OpReturn {
				v = regs[ins.A]
			} else if fn.Result != nil && ch == &fn.Chunks[0] {
				// Falling off the end of a value-returning function.
				v = value.Zero(fn.Result)
			}
			if len(t.frames) == base {
				return v, nil
			}
			// Back into the caller saved by OpCall. Its record's function,
			// registers and cells are wiped so a popped record pins neither a
			// stack segment nor cells.
			top := len(t.frames) - 1
			fr := &t.frames[top]
			t.stack.Release(regs, fr.sp)
			fn, ch, pc, regs, cells = fr.fn, fr.ch, fr.pc, fr.regs, fr.cells
			fr.fn, fr.regs, fr.cells = nil, nil, nil
			t.frames = t.frames[:top]
			t.depth--
			if dst := ch.Code[pc].Dst; dst >= 0 {
				regs[dst] = v
			}
			pc++
			goto activation

		case bytecode.OpIndexArr, bytecode.OpSetIndexArr:
			// In range is one unsigned compare; a negative or overlong index
			// goes to sem, which normalises the one and words the other.
			a, i := regs[ins.A].Array(), regs[ins.B].Int()
			if uint64(i) >= uint64(a.Len()) {
				j, err := sem.ArrayIndex(a, i)
				if err != nil {
					return value.Value{}, sem.At(err, ch.Pos[pc].String())
				}
				i = int64(j)
			}
			if ins.Op == bytecode.OpIndexArr {
				regs[ins.Dst] = a.Get(int(i))
			} else {
				a.Set(int(i), regs[ins.C])
			}

		case bytecode.OpIndex:
			v, err := sem.Index(regs[ins.A], regs[ins.B].Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			regs[ins.Dst] = v

		case bytecode.OpSetIndex:
			if err := sem.SetIndex(regs[ins.A], regs[ins.B].Int(), regs[ins.C]); err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}

		case bytecode.OpArray:
			n := int(ins.B)
			if g != nil {
				if k := g.AddAlloc(int64(n)); k != guard.OK {
					return value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			elems := make([]value.Value, n)
			copy(elems, regs[ins.A:ins.A+ins.B])
			regs[ins.Dst] = value.NewArray(value.FromSlice(fn.Types[ins.C], elems))

		case bytecode.OpRange:
			lo := regs[ins.A]
			hi := regs[ins.B]
			n, rerr := sem.RangeLen(lo.Int(), hi.Int())
			if rerr != nil {
				return value.Value{}, sem.At(rerr, ch.Pos[pc].String())
			}
			if g != nil {
				if k := g.AddAlloc(n); k != guard.OK {
					return value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			regs[ins.Dst] = value.NewArray(value.NewIntRange(lo.Int(), int(n)))

		case bytecode.OpForIter:
			if t.vm.rt.Stopped() {
				return value.Value{}, rt.ErrStopped
			}
			seq := regs[ins.A]
			idx := regs[ins.A+1].Int()
			if seq.K == value.Str {
				// Materialize the string's Unicode characters once, in the
				// loop-state temporary, so iteration is rune-correct without
				// per-step decoding.
				seq = value.NewArray(sem.RunesArray(seq.Str()))
				regs[ins.A] = seq
			}
			a := seq.Array()
			if idx >= int64(a.Len()) {
				pc = int(ins.B) - 1
				break
			}
			regs[ins.Dst] = a.Get(int(idx))
			regs[ins.A+1] = value.NewInt(idx + 1)

		case bytecode.OpParallel:
			if err := t.vm.rt.Parallel(&t.Thread, int(ins.B), t.spawns(fn, cells, int(ins.A), ch.Pos[pc])); err != nil {
				return value.Value{}, err
			}
		case bytecode.OpBackground:
			if err := t.vm.rt.Background(&t.Thread, int(ins.B), t.spawns(fn, cells, int(ins.A), ch.Pos[pc])); err != nil {
				return value.Value{}, err
			}
		case bytecode.OpParFor:
			if err := t.parFor(fn, cells, &fn.Chunks[ins.A], ins.C, regs[ins.B], ch.Pos[pc]); err != nil {
				return value.Value{}, err
			}

		case bytecode.OpLockAcquire:
			if err := t.vm.rt.Lock(&t.Thread, int(ins.A), ch.Pos[pc]); err != nil {
				return value.Value{}, err
			}
		case bytecode.OpLockRelease:
			t.vm.rt.Unlock(&t.Thread, int(ins.A), ch.Pos[pc])

		default:
			return value.Value{}, rt.Errorf(ch.Pos[pc], "internal: unknown opcode %s", ins.Op)
		}
		continue

	jump:
		// A compare-and-jump took its branch. A backward one is a loop
		// back-edge (a rotated loop's only one) and re-checks the stop flag.
		if int(ins.Dst) <= pc && t.vm.rt.Stopped() {
			return value.Value{}, rt.ErrStopped
		}
		pc = int(ins.Dst) - 1
	}
	return value.Value{}, nil
}

// arith is the untyped arithmetic path: sem.Arith on whatever kinds the
// operands hold, positioned errors, and the governor's charge for the bytes
// a string concatenation builds.
func (t *thread) arith(op bytecode.Op, l, r value.Value, pos *token.Pos) (value.Value, error) {
	v, err := sem.Arith(op.Operator(), l, r)
	if err != nil {
		return value.Value{}, sem.At(err, pos.String())
	}
	if g := t.vm.guard; g != nil && v.K == value.Str {
		if k := g.AddAlloc(int64(len(v.Str()))); k != guard.OK {
			return value.Value{}, g.ErrAt(k, pos.String())
		}
	}
	return v, nil
}

// spawns describes the threads of a parallel or background block to the
// runtime: one per chunk starting at fn.Chunks[first], all sharing the
// spawning activation's cells.
func (t *thread) spawns(fn *bytecode.Func, cells []*value.Cell, first int, pos token.Pos) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		nt := &thread{vm: t.vm}
		sub := &fn.Chunks[first+i]
		return rt.Spawn{Pos: pos, Thread: &nt.Thread, Run: func() error { return nt.runChunk(fn, sub, cells) }}
	}
}

// parFor hands the iterations over seq to the runtime's chunked loop. Each
// iteration runs chunk sub over the activation's cells with a private cell
// in place of the induction variable's. A worker's iterations run on one
// engine thread, so they share its register stack: an iteration allocates
// its cell and its view of the cells, and nothing for its temporaries.
func (t *thread) parFor(fn *bytecode.Func, cells []*value.Cell, sub *bytecode.Chunk, induction int32, seq value.Value, pos token.Pos) error {
	elems := sem.Elements(seq)
	return t.vm.rt.ParFor(&t.Thread, elems.Len(), pos, func() (*rt.Thread, func(i int) error) {
		nt := &thread{vm: t.vm}
		return &nt.Thread, func(i int) error {
			forked := make([]*value.Cell, len(cells))
			copy(forked, cells)
			forked[induction] = value.NewCell(elems.Get(i))
			return nt.runChunk(fn, sub, forked)
		}
	})
}
