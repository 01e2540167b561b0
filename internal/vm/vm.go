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
// # Register frames
//
// An activation's registers split in two: variable slots [0, NumSlots)
// and chunk temporaries above them. A function with no parallel
// constructs gets one flat value array for both — no cells, no locking,
// no indirection — because no other thread can ever see its frame. A
// function containing parallelism keeps one mutex-guarded cell per
// variable slot (threads of a `parallel` block share them; `parallel
// for` gives each iteration a private cell for the induction slot), while
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

// maxCallDepth mirrors the interpreter's recursion bound.
const maxCallDepth = 10000

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
	if fn.NumParams != old.NumParams {
		return fmt.Errorf("rebind %s: arity mismatch (have %d parameters, want %d)", name, fn.NumParams, old.NumParams)
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

// Call invokes a named function with the given arguments.
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
	if len(args) != fn.NumParams {
		return value.Value{}, fmt.Errorf("%s expects %d argument(s), got %d", name, fn.NumParams, len(args))
	}
	return m.run(fn, args)
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
}

// frame is a function activation. Functions without parallel constructs
// keep every register in one flat array (flat != nil); functions with
// parallelism keep one lockable cell per variable slot, and each chunk
// activation gets its own temporary array (see regFile).
type frame struct {
	fn    *bytecode.Func
	flat  []value.Value // non-shared: NumSlots + body NumTemps registers
	cells []*value.Cell // shared: one cell per variable slot
}

func newFrame(fn *bytecode.Func) *frame {
	if !fn.Shared {
		return &frame{fn: fn, flat: make([]value.Value, fn.NumSlots+fn.Chunks[0].NumTemps)}
	}
	backing := make([]value.Cell, fn.NumSlots)
	cells := make([]*value.Cell, fn.NumSlots)
	for i := range backing {
		cells[i] = &backing[i]
	}
	return &frame{fn: fn, cells: cells}
}

// fork gives a parallel-for iteration a frame view whose induction slot
// is a private cell; all other slots stay shared.
func (f *frame) fork(slot int, v value.Value) *frame {
	cells := make([]*value.Cell, len(f.cells))
	copy(cells, f.cells)
	cells[slot] = value.NewCell(v)
	return &frame{fn: f.fn, cells: cells}
}

// regFile is one chunk activation's register accessor. For flat frames
// every register indexes one array; for shared frames, variable slots go
// through cells and temporaries through the activation-private array.
type regFile struct {
	flat  []value.Value
	cells []*value.Cell
	temps []value.Value
	nv    int32
}

// get/set keep the flat-frame path small enough for the compiler to
// inline into the dispatch loop — sequential functions pay one nil check
// and one bounds-checked index per operand. The shared-frame path is
// split out so its size does not disqualify the fast path from inlining.
func (r *regFile) get(i int32) value.Value {
	if r.cells == nil {
		return r.flat[i]
	}
	return r.getShared(i)
}

func (r *regFile) set(i int32, v value.Value) {
	if r.cells == nil {
		r.flat[i] = v
		return
	}
	r.setShared(i, v)
}

//go:noinline
func (r *regFile) getShared(i int32) value.Value {
	if i < r.nv {
		return r.cells[i].Load()
	}
	return r.temps[i-r.nv]
}

//go:noinline
func (r *regFile) setShared(i int32, v value.Value) {
	if i < r.nv {
		r.cells[i].Store(v)
		return
	}
	r.temps[i-r.nv] = v
}

// slice returns the n consecutive registers starting at base as a
// directly-readable slice. The compiler only emits block operands
// (call arguments, array elements) in the temporary region, which is
// activation-private even in shared frames, so no locking is needed.
func (r *regFile) slice(base, n int32) []value.Value {
	if n == 0 {
		return nil
	}
	if r.cells == nil {
		return r.flat[base : base+n]
	}
	return r.temps[base-r.nv : base-r.nv+n]
}

// call runs fn on this thread. The recursion bound is checked at OpCall,
// where the call site's position is at hand.
func (t *thread) call(fn *bytecode.Func, args []value.Value) (value.Value, error) {
	t.depth++
	defer func() { t.depth-- }()

	f := newFrame(fn)
	if f.flat != nil {
		copy(f.flat, args)
	} else {
		for i := range args {
			f.cells[i].Store(args[i])
		}
	}
	returned, v, err := t.exec(&fn.Chunks[0], f)
	if err != nil {
		return value.Value{}, err
	}
	if returned {
		return v, nil
	}
	if fn.Result != nil {
		return value.Zero(fn.Result), nil
	}
	return value.Value{}, nil
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

// exec runs one chunk to completion. It reports whether an OpReturn
// delivered a value (true) as opposed to falling off via OpReturnNone.
func (t *thread) exec(ch *bytecode.Chunk, f *frame) (bool, value.Value, error) {
	rf := regFile{flat: f.flat, cells: f.cells, nv: int32(f.fn.NumSlots)}
	if rf.cells != nil && ch.NumTemps > 0 {
		rf.temps = make([]value.Value, ch.NumTemps)
	}
	consts := f.fn.Consts

	g := t.vm.guard
	code := ch.Code
	for pc := 0; pc < len(code); pc++ {
		if g != nil {
			// Batched fuel accounting: one local increment per instruction,
			// one governor sync per guard.StepBatch instructions.
			t.Pending++
			if t.Pending >= guard.StepBatch {
				if err := t.vm.rt.Flush(&t.Thread, ch.Pos[pc]); err != nil {
					return false, value.Value{}, err
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
				return false, value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			if g != nil && v.K == value.Str {
				// String concatenation grows data; charge the built bytes.
				if k := g.AddAlloc(int64(len(v.Str()))); k != guard.OK {
					return false, value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
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
				return false, value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			if g != nil && v.K == value.Str {
				if k := g.AddAlloc(int64(len(v.Str()))); k != guard.OK {
					return false, value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
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
				return false, value.Value{}, rt.ErrStopped
			}
			pc = int(ins.A) - 1
		case bytecode.OpJumpIfFalse:
			// Jump threading can turn conditional jumps into back-edges, so
			// taken backward branches re-check the stop flag too.
			if !rf.get(ins.B).Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return false, value.Value{}, rt.ErrStopped
				}
				pc = int(ins.A) - 1
			}
		case bytecode.OpJumpIfTrue:
			if rf.get(ins.B).Bool() {
				if int(ins.A) <= pc && t.vm.rt.Stopped() {
					return false, value.Value{}, rt.ErrStopped
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
					return false, value.Value{}, rt.ErrStopped
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
					return false, value.Value{}, rt.ErrStopped
				}
				pc = int(ins.Dst) - 1
			}

		case bytecode.OpCall:
			if t.vm.rt.Stopped() {
				return false, value.Value{}, rt.ErrStopped
			}
			if t.depth >= maxCallDepth {
				return false, value.Value{}, rt.Errorf(ch.Pos[pc], "call stack exhausted (recursion deeper than %d)", maxCallDepth)
			}
			// Inline-cache dispatch: generation first, then the entry.
			gen := t.vm.gen.Load()
			var fn *bytecode.Func
			if ic := t.vm.ics[ins.S].Load(); ic != nil && ic.gen == gen {
				fn = ic.fn
			} else {
				fn = t.vm.resolveFunc(ins.S, ins.A, gen)
			}
			v, err := t.call(fn, rf.slice(ins.B, ins.C))
			if err != nil {
				return false, value.Value{}, err
			}
			if ins.Dst >= 0 && fn.Result != nil {
				rf.set(ins.Dst, v)
			}

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
				return false, value.Value{}, rt.Errorf(ch.Pos[pc], "%v", err)
			}
			if ins.Dst >= 0 && ic.returns {
				rf.set(ins.Dst, v)
			}

		case bytecode.OpReturn:
			return true, rf.get(ins.A), nil
		case bytecode.OpReturnNone:
			return false, value.Value{}, nil

		case bytecode.OpIndex:
			v, err := sem.Index(rf.get(ins.A), rf.get(ins.B).Int())
			if err != nil {
				return false, value.Value{}, sem.At(err, ch.Pos[pc].String())
			}
			rf.set(ins.Dst, v)

		case bytecode.OpSetIndex:
			if err := sem.SetIndex(rf.get(ins.A), rf.get(ins.B).Int(), rf.get(ins.C)); err != nil {
				return false, value.Value{}, sem.At(err, ch.Pos[pc].String())
			}

		case bytecode.OpArray:
			n := int(ins.B)
			if g != nil {
				if k := g.AddAlloc(int64(n)); k != guard.OK {
					return false, value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			elems := make([]value.Value, n)
			copy(elems, rf.slice(ins.A, ins.B))
			rf.set(ins.Dst, value.NewArray(value.FromSlice(f.fn.Types[ins.C], elems)))

		case bytecode.OpRange:
			lo := rf.get(ins.A)
			hi := rf.get(ins.B)
			n, rerr := sem.RangeLen(lo.Int(), hi.Int())
			if rerr != nil {
				return false, value.Value{}, sem.At(rerr, ch.Pos[pc].String())
			}
			if g != nil {
				if k := g.AddAlloc(n); k != guard.OK {
					return false, value.Value{}, g.ErrAt(k, ch.Pos[pc].String())
				}
			}
			elems := make([]value.Value, n)
			for i := int64(0); i < n; i++ {
				elems[i] = value.NewInt(lo.Int() + i)
			}
			rf.set(ins.Dst, value.NewArray(value.FromSlice(types.IntType, elems)))

		case bytecode.OpForIter:
			if t.vm.rt.Stopped() {
				return false, value.Value{}, rt.ErrStopped
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
			if err := t.vm.rt.Parallel(&t.Thread, int(ins.B), t.spawns(f, int(ins.A), ch.Pos[pc])); err != nil {
				return false, value.Value{}, err
			}
		case bytecode.OpBackground:
			if err := t.vm.rt.Background(&t.Thread, int(ins.B), t.spawns(f, int(ins.A), ch.Pos[pc])); err != nil {
				return false, value.Value{}, err
			}
		case bytecode.OpParFor:
			if err := t.parFor(f, ins, rf.get(ins.B), ch.Pos[pc]); err != nil {
				return false, value.Value{}, err
			}

		case bytecode.OpLockAcquire:
			if err := t.vm.rt.Lock(&t.Thread, int(ins.A), ch.Pos[pc]); err != nil {
				return false, value.Value{}, err
			}
		case bytecode.OpLockRelease:
			t.vm.rt.Unlock(&t.Thread, int(ins.A), ch.Pos[pc])

		default:
			return false, value.Value{}, rt.Errorf(ch.Pos[pc], "internal: unknown opcode %s", ins.Op)
		}
	}
	return false, value.Value{}, nil
}

// spawns describes the threads of a parallel or background block to the
// runtime: one per chunk starting at f.fn.Chunks[first], all sharing f.
func (t *thread) spawns(f *frame, first int, pos token.Pos) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		nt := &thread{vm: t.vm}
		sub := &f.fn.Chunks[first+i]
		return rt.Spawn{Pos: pos, Thread: &nt.Thread, Run: func() error {
			_, _, err := nt.exec(sub, f)
			return err
		}}
	}
}

// parFor hands the iterations over seq to the runtime's chunked loop. Each
// iteration runs chunk ins.A on a view of f whose induction slot ins.C is
// a private cell.
func (t *thread) parFor(f *frame, ins bytecode.Instr, seq value.Value, pos token.Pos) error {
	sub := &f.fn.Chunks[ins.A]
	elems := sem.Elements(seq)
	return t.vm.rt.ParFor(&t.Thread, elems.Len(), pos, func() (*rt.Thread, func(i int) error) {
		nt := &thread{vm: t.vm}
		return &nt.Thread, func(i int) error {
			_, _, err := nt.exec(sub, f.fork(int(ins.C), elems.Get(i)))
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
