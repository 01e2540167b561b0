// Package vm executes Tetra register bytecode (internal/bytecode) — the
// reproduction's stand-in for the paper's planned native-code compiler
// (§VI). It keeps the interpreter's parallel runtime semantics exactly,
// because both run on the same thread runtime (internal/rt): parallel
// chunks run on goroutines sharing the enclosing frame's cells,
// parallel-for iterations get a private induction cell, background chunks
// are not joined before the spawning statement continues (though Run joins
// them before returning), and lock instructions hit the runtime's named
// lock table, whose waiters park interruptibly. The VM runs that table
// without live deadlock detection: a deadlocked program ends at the
// governor's deadline rather than with an immediate diagnostic.
//
// # Registers and call frames
//
// An activation's registers split in two: variable slots [0, NumSlots)
// and chunk temporaries above them. A function with no parallel
// constructs is flat: one window of values holds both — no cells, no
// locking, no indirection — because no other thread can ever see it. The
// window is claimed from a register stack private to the calling thread
// and handed back, zeroed, on return, and the dispatch loop stays where it
// is: a call pushes a record of the caller onto the thread's frame stack
// and continues in the callee, a return pops it. A call to a flat function
// therefore allocates nothing, and the arguments are copied once, from the
// caller's argument temporaries into the callee's parameter slots. The
// stack is created on a thread's first such call and grows by whole
// segments, never moving a live window.
//
// A function containing parallelism keeps one mutex-guarded cell per
// variable slot, on the heap (threads of a `parallel` block share them,
// `background` threads may outlive the activation, and `parallel for`
// gives each iteration a private cell for the induction slot), while
// temporaries remain a plain per-activation array even then: the compiler
// guarantees temporaries never cross a chunk boundary, so concurrent
// chunks each own theirs outright.
//
// # Inline caches
//
// Every call instruction carries a program-wide site id. The VM keeps a
// monomorphic inline-cache entry per site holding the resolved callee
// (function or builtin), stamped with the VM's redefinition generation.
// A hit costs one atomic load and a generation compare — no lock, no
// table lookup; Rebind (redefining a function on a live VM) bumps the
// generation, instantly invalidating every site. The protocol reads the
// generation before the slow-path table lookup, so a racing rebind can
// only ever produce an entry stamped with an outdated generation — which
// the next dispatch re-resolves. A stale callee is never served past the
// rebind's own synchronization point.
//
// The VM intentionally omits the step hook, tracer, and deadlock/race
// tooling: those belong to the development path (the interpreter, which the
// debugger drives), while the VM is the "run it fast" path. Differential
// tests assert the two backends produce identical program behaviour.
//
// Unlike the interpreter's statement-boundary checks, the VM consults the
// resource governor per instruction, and additionally re-checks the stop
// flag on backward jumps (loop back-edges) so Cancel can interrupt a tight
// loop even when no governor is attached.
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/value"
)

// minStack is the size, in registers, of a thread's first stack segment:
// room for a dozen typical windows, small enough that a spawned thread's
// first call costs one modest allocation.
const minStack = 64

// Options configures a VM instance.
type Options struct {
	// Env supplies program I/O. Required.
	Env *stdlib.Env
	// NoWaitBackground makes Run return without joining background threads.
	NoWaitBackground bool
	// Guard, when non-nil, is the resource governor checked once per
	// executed instruction (the VM analog of the interpreter's
	// statement-boundary check).
	Guard *guard.Governor
	// Sched controls how parallel-for loops are chunked across worker
	// goroutines. The zero value uses GOMAXPROCS workers and the default
	// grain heuristic.
	Sched sched.Config
}

// callIC is one monomorphic inline-cache entry: the callee a call site
// resolved to, stamped with the redefinition generation it was resolved
// under. Exactly one of fn/b is set.
type callIC struct {
	gen     uint32
	fn      *bytecode.Func
	b       *stdlib.Builtin
	returns bool // builtin produces a value
}

// VM executes one compiled program.
type VM struct {
	prog  *bytecode.Program
	opts  Options
	guard *guard.Governor
	rt    *rt.Runtime

	// funcs is the VM's rebindable view of prog.Funcs; funcMu guards it
	// (and byName) against Rebind. The common case never takes the lock —
	// call sites hit their inline cache.
	funcMu sync.RWMutex
	funcs  []*bytecode.Func
	byName map[string]int
	// gen counts redefinitions; an inline-cache entry is valid only while
	// its stamp matches.
	gen atomic.Uint32
	ics []atomic.Pointer[callIC]
}

// New returns a VM for the compiled program.
func New(prog *bytecode.Program, opts Options) *VM {
	m := &VM{prog: prog, opts: opts, guard: opts.Guard, rt: rt.New(rt.Config{
		Guard:            opts.Guard,
		Sched:            opts.Sched,
		LockNames:        prog.LockNames,
		NoWaitBackground: opts.NoWaitBackground,
	})}
	m.funcs = make([]*bytecode.Func, len(prog.Funcs))
	copy(m.funcs, prog.Funcs)
	m.byName = make(map[string]int, len(prog.Funcs))
	for i, f := range prog.Funcs {
		m.byName[f.Name] = i
	}
	m.ics = make([]atomic.Pointer[callIC], prog.NumSites)
	return m
}

// Rebind replaces the function named name on this VM with fn, for
// embedders that hot-swap code on a live VM. The replacement must match
// the original's arity and result type — call sites compiled against the
// old signature stay valid. Every inline cache is invalidated atomically
// by bumping the generation; in-flight calls that already entered the old
// body finish it (the swap is a redefinition, not a preemption).
func (m *VM) Rebind(name string, fn *bytecode.Func) error {
	m.funcMu.Lock()
	defer m.funcMu.Unlock()
	idx, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("no function named %s", name)
	}
	old := m.funcs[idx]
	if len(fn.Params) != len(old.Params) {
		return fmt.Errorf("rebind %s: arity mismatch (have %d parameters, want %d)", name, len(fn.Params), len(old.Params))
	}
	if (fn.Result == nil) != (old.Result == nil) || (fn.Result != nil && !types.Equal(fn.Result, old.Result)) {
		return fmt.Errorf("rebind %s: result type mismatch", name)
	}
	m.funcs[idx] = fn
	m.gen.Add(1)
	return nil
}

// Run executes the program's main function.
func (m *VM) Run() error {
	if m.prog.MainIndex < 0 {
		return fmt.Errorf("program has no main function")
	}
	_, err := m.run(m.funcs[m.prog.MainIndex], nil)
	return err
}

// Call invokes a named function with the given arguments, converted to the
// parameter types as a compiled call site would (int widens to real); it
// is the caller's job to pass compatible kinds.
func (m *VM) Call(name string, args ...value.Value) (value.Value, error) {
	m.funcMu.RLock()
	idx, ok := m.byName[name]
	var fn *bytecode.Func
	if ok {
		fn = m.funcs[idx]
	}
	m.funcMu.RUnlock()
	if fn == nil {
		return value.Value{}, fmt.Errorf("no function named %s", name)
	}
	if len(args) != len(fn.Params) {
		return value.Value{}, fmt.Errorf("%s expects %d argument(s), got %d", name, len(fn.Params), len(args))
	}
	conv := make([]value.Value, len(args))
	for i, a := range args {
		conv[i] = value.Convert(a, fn.Params[i])
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

	// The register stack: flat activations take their windows from stack,
	// the newest segment, whose registers from sp up are free and zero.
	// Created on the thread's first call to a flat function.
	stack []value.Value
	sp    int
	// frames holds one record per flat call in progress inside exec.
	frames []frame
}

// frame is what a call to a flat function saves: the caller's function,
// chunk, call instruction and registers, and the stack top to go back to
// when the callee's window is released.
type frame struct {
	fn *bytecode.Func
	ch *bytecode.Chunk
	pc int
	rf regFile
	sp int
}

// claim takes the next n registers of the thread's stack as a window, all
// zero like a fresh make, and returns it with the stack top to restore on
// release. When the segment is full a larger one replaces it and the old
// one stays where it is, kept alive by the windows still in it, so a
// caller's registers never move; the tops those windows recorded are
// offsets into the old segment, and restoring one into the new segment
// only skips free registers, because every window claimed from the new
// segment has been released by then. A window belongs to one activation,
// and at most rt.MaxCallDepth are live; segments double, so a thread's
// stack stays within a small multiple of its deepest recursion.
func (t *thread) claim(n int) ([]value.Value, int) {
	if t.sp+n > len(t.stack) {
		t.stack = make([]value.Value, max(minStack, 2*len(t.stack), 2*n))
		t.sp = 0
	}
	sp := t.sp
	t.sp += n
	return t.stack[sp:t.sp:t.sp], sp
}

// release returns window w to the stack, zeroed so that the next claim
// finds it clean and the values it held do not outlive the activation.
func (t *thread) release(w []value.Value, sp int) {
	clear(w)
	t.sp = sp
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

// regFile is one chunk activation's register accessor. A flat activation
// (cells == nil) keeps every register in regs, its window. A shared one
// keeps variable slots [0, nv) in cells and only the chunk's temporaries
// in regs.
type regFile struct {
	regs  []value.Value
	cells []*value.Cell
	nv    int32
}

// get/set keep the flat path small enough for the compiler to inline into
// the dispatch loop — sequential functions pay one nil check and one
// bounds-checked index per operand. The shared path is split out so its
// size does not disqualify the fast path from inlining.
func (r *regFile) get(i int32) value.Value {
	if r.cells == nil {
		return r.regs[i]
	}
	return r.getShared(i)
}

func (r *regFile) set(i int32, v value.Value) {
	if r.cells == nil {
		r.regs[i] = v
		return
	}
	r.setShared(i, v)
}

//go:noinline
func (r *regFile) getShared(i int32) value.Value {
	if i < r.nv {
		return r.cells[i].Load()
	}
	return r.regs[i-r.nv]
}

//go:noinline
func (r *regFile) setShared(i int32, v value.Value) {
	if i < r.nv {
		r.cells[i].Store(v)
		return
	}
	r.regs[i-r.nv] = v
}

// slice returns the n consecutive registers starting at base as a
// directly-readable slice. The compiler only emits block operands
// (call arguments, array elements) in the temporary region, which is
// activation-private even in shared activations, so no locking is needed.
func (r *regFile) slice(base, n int32) []value.Value {
	return r.regs[base-r.nv : base-r.nv+n]
}

// call runs fn on this thread from outside the dispatch loop: the thread's
// entry function, and any function with parallel constructs. The recursion
// bound is checked at OpCall, where the call site's position is at hand.
func (t *thread) call(fn *bytecode.Func, args []value.Value) (value.Value, error) {
	t.depth++
	var v value.Value
	var err error
	if fn.Shared {
		cells := newCells(fn)
		for i := range args {
			cells[i].Store(args[i])
		}
		v, err = t.execShared(fn, &fn.Chunks[0], cells)
	} else {
		w, sp := t.claim(fn.NumSlots + fn.Chunks[0].NumTemps)
		copy(w, args)
		v, err = t.exec(fn, &fn.Chunks[0], regFile{regs: w})
		t.release(w, sp)
	}
	t.depth--
	return v, err
}

// execShared runs one chunk of a function with parallel constructs over
// the activation's cells, with temporaries of its own.
func (t *thread) execShared(fn *bytecode.Func, ch *bytecode.Chunk, cells []*value.Cell) (value.Value, error) {
	rf := regFile{cells: cells, nv: int32(fn.NumSlots)}
	if ch.NumTemps > 0 {
		rf.regs = make([]value.Value, ch.NumTemps)
	}
	return t.exec(fn, ch, rf)
}

// resolveFunc is the call-site slow path: look the callee up under the
// lock and publish a fresh inline-cache entry. gen was loaded BEFORE the
// table read — see the package comment for why that ordering is what
// makes a stale entry impossible.
func (m *VM) resolveFunc(site, idx int32, gen uint32) *bytecode.Func {
	m.funcMu.RLock()
	fn := m.funcs[idx]
	m.funcMu.RUnlock()
	m.ics[site].Store(&callIC{gen: gen, fn: fn})
	return fn
}

// exec runs chunk ch of fn over registers rf until it returns, and
// delivers its result: the returned value, or the result type's zero when
// a value-returning function's body falls off its end.
//
// Calls to flat functions do not recurse into exec. OpCall saves the
// caller in a frame record, claims the callee's window, copies the
// arguments into it and goes on dispatching in the callee; a return
// releases the window and resumes the saved caller. Only the return that
// finds the record stack where this exec started leaves it. An error
// leaves it at once, records and windows unreleased: a thread that fails
// runs nothing more, and its stack goes with it.
func (t *thread) exec(fn *bytecode.Func, ch *bytecode.Chunk, rf regFile) (value.Value, error) {
	base := len(t.frames)
	g := t.vm.guard
	pc := 0
	// Dispatch re-enters here whenever a call or a return switched fn, ch,
	// rf and pc to another activation, so that inside the loop the code and
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
		ins := code[pc]
		switch ins.Op {
		case bytecode.OpNop:

		case bytecode.OpConst:
			rf.set(ins.Dst, consts[ins.A])
		case bytecode.OpMove:
			rf.set(ins.Dst, rf.get(ins.A))
		case bytecode.OpToReal:
			rf.set(ins.Dst, sem.ToReal(rf.get(ins.A)))

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			l, r := rf.get(ins.A), rf.get(ins.B)
			if l.K == value.Int && r.K == value.Int && (ins.Op < bytecode.OpDiv || r.Int() != 0) {
				// Hot path: sem's inlinable int kernel. Zero divisors fall
				// through to sem.Arith, which owns the canonical error.
				rf.set(ins.Dst, value.NewInt(sem.ArithInt(semOp(ins.Op), l.Int(), r.Int())))
				continue
			}
			v, err := sem.Arith(semOp(ins.Op), l, r)
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			if g != nil && v.K == value.Str {
				// String concatenation grows data; charge the built bytes.
				if k := g.AddAlloc(int64(len(v.Str()))); k != guard.OK {
					return value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			rf.set(ins.Dst, v)

		case bytecode.OpArithConst, bytecode.OpArithConstL:
			// Fused const+arith (optimizer): one operand comes from the pool.
			l := rf.get(ins.A)
			r := consts[ins.B]
			if ins.Op == bytecode.OpArithConstL {
				l, r = r, l
			}
			aop := bytecode.Op(ins.C)
			if l.K == value.Int && r.K == value.Int && (aop < bytecode.OpDiv || r.Int() != 0) {
				rf.set(ins.Dst, value.NewInt(sem.ArithInt(semOp(aop), l.Int(), r.Int())))
				continue
			}
			v, err := sem.Arith(semOp(aop), l, r)
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			if g != nil && v.K == value.Str {
				if k := g.AddAlloc(int64(len(v.Str()))); k != guard.OK {
					return value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			rf.set(ins.Dst, v)

		case bytecode.OpNeg:
			rf.set(ins.Dst, sem.Neg(rf.get(ins.A)))
		case bytecode.OpNot:
			rf.set(ins.Dst, sem.Not(rf.get(ins.A)))

		case bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			l, r := rf.get(ins.A), rf.get(ins.B)
			if l.K == value.Int && r.K == value.Int {
				rf.set(ins.Dst, value.NewBool(sem.CompareInt(semOp(ins.Op), l.Int(), r.Int())))
				continue
			}
			rf.set(ins.Dst, value.NewBool(sem.Compare(semOp(ins.Op), l, r)))

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
			if !rf.get(ins.B).Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.A) - 1
			}
		case bytecode.OpJumpIfTrue:
			if rf.get(ins.B).Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.A) - 1
			}

		case bytecode.OpCmpJump:
			// Fused compare+branch (optimizer): jump when the comparison
			// matches the recorded sense.
			cmp, sense := bytecode.UnpackCmp(ins.C)
			l, r := rf.get(ins.A), rf.get(ins.B)
			var taken bool
			if l.K == value.Int && r.K == value.Int {
				taken = sem.CompareInt(semOp(cmp), l.Int(), r.Int()) == sense
			} else {
				taken = sem.Compare(semOp(cmp), l, r) == sense
			}
			if taken {
				if int(ins.Dst) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.Dst) - 1
			}

		case bytecode.OpCmpConstJump:
			// Doubly fused: compare+branch with a pooled constant operand.
			cmp, constLeft, sense := bytecode.UnpackCmpConst(ins.C)
			l := rf.get(ins.A)
			r := consts[ins.B]
			if constLeft {
				l, r = r, l
			}
			var taken bool
			if l.K == value.Int && r.K == value.Int {
				taken = sem.CompareInt(semOp(cmp), l.Int(), r.Int()) == sense
			} else {
				taken = sem.Compare(semOp(cmp), l, r) == sense
			}
			if taken {
				if int(ins.Dst) <= pc && t.vm.rt.Stopped() {
					return value.Value{}, rt.ErrStopped
				}
				pc = int(ins.Dst) - 1
			}

		case bytecode.OpCall:
			if t.vm.rt.Stopped() {
				return value.Value{}, rt.ErrStopped
			}
			if t.depth >= rt.MaxCallDepth {
				return value.Value{}, rt.Errorf(ch.Pos[pc], "call stack exhausted (recursion deeper than %d)", rt.MaxCallDepth)
			}
			// Inline-cache dispatch: generation first, then the entry.
			gen := t.vm.gen.Load()
			var callee *bytecode.Func
			if ic := t.vm.ics[ins.S].Load(); ic != nil && ic.gen == gen {
				callee = ic.fn
			} else {
				callee = t.vm.resolveFunc(ins.S, ins.A, gen)
			}
			if callee.Shared {
				v, err := t.call(callee, rf.slice(ins.B, ins.C))
				if err != nil {
					return value.Value{}, err
				}
				if ins.Dst >= 0 && callee.Result != nil {
					rf.set(ins.Dst, v)
				}
				continue
			}
			// Flat callee: its window takes the arguments straight from the
			// caller's argument temporaries, and dispatch moves into it.
			body := &callee.Chunks[0]
			w, sp := t.claim(callee.NumSlots + body.NumTemps)
			copy(w, rf.slice(ins.B, ins.C))
			t.frames = append(t.frames, frame{fn: fn, ch: ch, pc: pc, rf: rf, sp: sp})
			t.depth++
			fn, ch, rf, pc = callee, body, regFile{regs: w}, 0
			goto activation

		case bytecode.OpCallBuiltin:
			// Builtins are immutable, so their cache entries never
			// invalidate; the entry saves the id lookup and the
			// returns-a-value test.
			ic := t.vm.ics[ins.S].Load()
			if ic == nil {
				b := stdlib.ByID(int(ins.A))
				ic = &callIC{b: b, returns: builtinReturns(int(ins.A))}
				t.vm.ics[ins.S].Store(ic)
			}
			v, err := ic.b.Eval(t.vm.opts.Env, rf.slice(ins.B, ins.C))
			if err != nil {
				return value.Value{}, rt.Errorf(ch.Pos[pc], "%v", err)
			}
			if ins.Dst >= 0 && ic.returns {
				rf.set(ins.Dst, v)
			}

		case bytecode.OpReturn, bytecode.OpReturnNone:
			var v value.Value
			if ins.Op == bytecode.OpReturn {
				v = rf.get(ins.A)
			} else if fn.Result != nil && ch == &fn.Chunks[0] {
				// Falling off the end of a value-returning function.
				v = value.Zero(fn.Result)
			}
			if len(t.frames) == base {
				return v, nil
			}
			// Back into the caller saved by OpCall. Its record is wiped so a
			// popped record pins neither a stack segment nor cells.
			top := len(t.frames) - 1
			fr := &t.frames[top]
			t.release(rf.regs, fr.sp)
			returns := fn.Result != nil
			fn, ch, pc, rf = fr.fn, fr.ch, fr.pc, fr.rf
			*fr = frame{}
			t.frames = t.frames[:top]
			t.depth--
			if dst := ch.Code[pc].Dst; dst >= 0 && returns {
				rf.set(dst, v)
			}
			pc++
			goto activation

		case bytecode.OpIndex:
			v, err := sem.Index(rf.get(ins.A), rf.get(ins.B).Int())
			if err != nil {
				return value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			rf.set(ins.Dst, v)

		case bytecode.OpSetIndex:
			if err := sem.SetIndex(rf.get(ins.A), rf.get(ins.B).Int(), rf.get(ins.C)); err != nil {
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
			copy(elems, rf.slice(ins.A, ins.B))
			rf.set(ins.Dst, value.NewArray(value.FromSlice(fn.Types[ins.C], elems)))

		case bytecode.OpRange:
			lo := rf.get(ins.A)
			hi := rf.get(ins.B)
			n, rerr := sem.RangeLen(lo.Int(), hi.Int())
			if rerr != nil {
				return value.Value{}, sem.At(rerr, ch.Pos[pc].String())
			}
			if g != nil {
				if k := g.AddAlloc(n); k != guard.OK {
					return value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			rf.set(ins.Dst, value.NewArray(value.NewIntRange(lo.Int(), int(n))))

		case bytecode.OpForIter:
			if t.vm.rt.Stopped() {
				return value.Value{}, rt.ErrStopped
			}
			seq := rf.get(ins.A)
			idx := rf.get(ins.A + 1).Int()
			if seq.K == value.Str {
				// Materialize the string's Unicode characters once, in the
				// loop-state temporary, so iteration is rune-correct without
				// per-step decoding.
				seq = value.NewArray(sem.RunesArray(seq.Str()))
				rf.set(ins.A, seq)
			}
			a := seq.Array()
			if idx >= int64(a.Len()) {
				pc = int(ins.B) - 1
				break
			}
			rf.set(ins.Dst, a.Get(int(idx)))
			rf.set(ins.A+1, value.NewInt(idx+1))

		case bytecode.OpParallel:
			if err := t.vm.rt.Parallel(&t.Thread, int(ins.B), t.spawns(fn, rf.cells, int(ins.A), ch.Pos[pc])); err != nil {
				return value.Value{}, err
			}
		case bytecode.OpBackground:
			if err := t.vm.rt.Background(&t.Thread, int(ins.B), t.spawns(fn, rf.cells, int(ins.A), ch.Pos[pc])); err != nil {
				return value.Value{}, err
			}
		case bytecode.OpParFor:
			if err := t.parFor(fn, rf.cells, ins, rf.get(ins.B), ch.Pos[pc]); err != nil {
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
	}
	return value.Value{}, nil
}

// spawns describes the threads of a parallel or background block to the
// runtime: one per chunk starting at fn.Chunks[first], all sharing the
// spawning activation's cells.
func (t *thread) spawns(fn *bytecode.Func, cells []*value.Cell, first int, pos token.Pos) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		nt := &thread{vm: t.vm}
		sub := &fn.Chunks[first+i]
		return rt.Spawn{Pos: pos, Thread: &nt.Thread, Run: func() error {
			_, err := nt.execShared(fn, sub, cells)
			return err
		}}
	}
}

// parFor hands the iterations over seq to the runtime's chunked loop. Each
// iteration runs chunk ins.A over the activation's cells with a private
// cell in place of induction slot ins.C. A worker's iterations run on one
// engine thread, so they share its register stack.
func (t *thread) parFor(fn *bytecode.Func, cells []*value.Cell, ins bytecode.Instr, seq value.Value, pos token.Pos) error {
	sub := &fn.Chunks[ins.A]
	elems := sem.Elements(seq)
	return t.vm.rt.ParFor(&t.Thread, elems.Len(), pos, func() (*rt.Thread, func(i int) error) {
		nt := &thread{vm: t.vm}
		return &nt.Thread, func(i int) error {
			forked := make([]*value.Cell, len(cells))
			copy(forked, cells)
			forked[ins.C] = value.NewCell(elems.Get(i))
			_, err := nt.execShared(fn, sub, forked)
			return err
		}
	})
}

// builtinReturns reports whether builtin id produces a value. Only print,
// push and sleep are void.
func builtinReturns(id int) bool {
	switch id {
	case stdlib.Print, stdlib.Push, stdlib.Sleep:
		return false
	}
	return true
}

// semOps maps the arithmetic/comparison opcodes to their sem operators;
// all evaluation happens in internal/sem, the shared semantics core.
var semOps = [bytecode.OpGe + 1]sem.Op{
	bytecode.OpAdd: sem.Add, bytecode.OpSub: sem.Sub, bytecode.OpMul: sem.Mul,
	bytecode.OpDiv: sem.Div, bytecode.OpMod: sem.Mod,
	bytecode.OpEq: sem.Eq, bytecode.OpNe: sem.Ne,
	bytecode.OpLt: sem.Lt, bytecode.OpLe: sem.Le,
	bytecode.OpGt: sem.Gt, bytecode.OpGe: sem.Ge,
}

func semOp(op bytecode.Op) sem.Op { return semOps[op] }
