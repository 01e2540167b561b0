// Package interp is Tetra's tree-walking interpreter with real parallelism.
//
// It mirrors the architecture the paper describes (§IV): the checked AST is
// executed by recursive traversal, and when execution reaches a parallel
// construct the interpreter hands one body per unit of work to the shared
// thread runtime (internal/rt), which launches the threads — goroutines
// instead of Pthreads — and joins (or, for background blocks, does not
// join) them, and which owns the named-lock table. Threads share the
// enclosing function's symbol table; a parallel-for iteration additionally
// receives a private cell for its induction variable, reproducing the
// paper's private/shared symbol table split.
//
// The interpreter turns on the runtime's live deadlock detection
// (wait-for-graph cycles), turning the classic "my program hangs"
// experience into an explanatory error — the pedagogical goal the paper
// assigns to its IDE.
package interp

import (
	"fmt"
	"runtime"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/value"
)

// FrameView and StepHook, the debugger's view of a running program, are
// declared beside rt.Config.Step; ThreadWork is one thread's contribution
// to a work profile.
type (
	FrameView  = rt.FrameView
	StepHook   = rt.StepHook
	ThreadWork = rt.ThreadWork
)

// Interp executes one checked program. A single Interp may run one program
// at a time; create a new Interp per run.
type Interp struct {
	prog *ast.Program
	// What a thread reads at every statement is a field here, not a load
	// through the runtime: the governor, the environment builtins evaluate
	// in, and the configuration's Step, Tracer and TraceVars.
	guard *guard.Governor
	env   *stdlib.Env
	rt    *rt.Runtime
	cfg   rt.Config
	// watched is set when an instrument runs at every statement — Step,
	// Tracer or CountWork — so an unwatched statement tests one field.
	watched bool
	// locked marks, per function with parallel constructs, the slots its
	// frames access under their cells' locks: the shared variables
	// (ast.FuncDecl.Shared), or every slot when an instrument — Step,
	// Tracer, TraceVars — watches the run, so what the debugger, the trace
	// and the race and deadlock tools see does not depend on the analysis.
	locked map[*ast.FuncDecl][]bool
}

// WorkProfile returns the per-thread work counts recorded during the last
// Run/Call when Config.CountWork was set. Order is completion order.
func (in *Interp) WorkProfile() []ThreadWork { return in.rt.WorkProfile() }

// New returns an interpreter that runs the checked program as cfg says.
func New(prog *ast.Program, cfg rt.Config) *Interp {
	r := rt.New(cfg, prog.LockNames)
	in := &Interp{prog: prog, cfg: cfg, guard: r.Guard(), env: r.Env(), rt: r,
		watched: cfg.Step != nil || cfg.Tracer != nil || cfg.CountWork}
	sees := cfg.Step != nil || cfg.Tracer != nil || cfg.TraceVars
	for _, fn := range prog.Funcs {
		if !fn.HasParallel {
			continue
		}
		if in.locked == nil {
			in.locked = make(map[*ast.FuncDecl][]bool)
		}
		locked := fn.Shared
		if sees || locked == nil {
			locked = make([]bool, fn.NumSlots)
			for i := range locked {
				locked[i] = sees
			}
		}
		in.locked[fn] = locked
	}
	return in
}

// Run executes the program's main function. It returns the first runtime
// error raised by any thread, or an error if main is missing.
func (in *Interp) Run() error {
	f := in.prog.Lookup("main")
	if f == nil {
		return fmt.Errorf("program has no main function")
	}
	_, err := in.run(f, nil)
	return err
}

// Call invokes a named function with the given arguments, for embedding
// Tetra as a library (the facade's Program.Call). Arguments are converted
// to the parameter types (int widens to real); one that is then not of its
// parameter's type is an error, the same one VM.Call reports.
func (in *Interp) Call(name string, args ...value.Value) (value.Value, error) {
	f := in.prog.Lookup(name)
	if f == nil {
		return value.Value{}, fmt.Errorf("no function named %s", name)
	}
	if len(args) != len(f.Params) {
		return value.Value{}, fmt.Errorf("%s expects %d argument(s), got %d", name, len(f.Params), len(args))
	}
	for i, p := range f.Params {
		if _, err := value.Bind(args[i], p.Name, p.Type); err != nil {
			return value.Value{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	return in.run(f, args)
}

// run calls f on a new main thread and returns once the background threads
// have been joined. The entry activation is on the heap whatever f is.
func (in *Interp) run(f *ast.FuncDecl, args []value.Value) (value.Value, error) {
	t := in.newThread()
	var v value.Value
	err := in.rt.Main(&t.Thread, func() (err error) {
		v, err = t.enter(in.newFrame(f, args), f.Pos())
		return err
	})
	if err != nil {
		return value.Value{}, err
	}
	return v, nil
}

// Cancel requests that all running Tetra threads stop at their next
// statement boundary. Used by the debugger's kill command.
func (in *Interp) Cancel() { in.rt.Cancel() }

// thread is one Tetra thread of execution.
type thread struct {
	rt.Thread // identity and step accounting; the runtime fills it in
	interp    *Interp
	ret       value.Value
	depth     int
	held      []int // lock indices currently held, innermost last
	countWork bool
	yieldAt   int64 // countWork: the Work count at which to yield next

	// The records and cells of flat activations and the arguments of calls
	// in progress are windows on these stacks.
	frames rt.Stack[frame]
	cells  rt.Stack[value.Cell]
	args   rt.Stack[value.Value]
}

// workQuantum is how many work units a counting thread runs between
// yields. A work profile stands for a machine with one core per thread,
// where all threads advance together; yielding this often makes them do so
// on any host, so a thread that prunes on another's result (the TSP bound)
// sees it about when it would there. Left to the Go scheduler's 10 ms time
// slices on a host with fewer cores than threads, one thread runs far ahead
// and the profile changes from run to run. A thousand AST nodes is tens of
// microseconds: fine against any workload worth profiling, and too rare to
// slow the run measurably.
const workQuantum = 1024

func (in *Interp) newThread() *thread {
	return &thread{interp: in, countWork: in.cfg.CountWork}
}

// emit records an event when the run is traced; the test is here, inline,
// because every call emits two.
func (t *thread) emit(kind trace.Kind, pos token.Pos, name string) {
	if t.interp.cfg.Tracer != nil {
		t.interp.rt.Emit(&t.Thread, kind, pos, name)
	}
}

func (t *thread) emitVar(kind trace.Kind, pos token.Pos, name string, c *value.Cell) {
	tr := t.interp.cfg.Tracer
	if tr == nil {
		return
	}
	held := append([]int(nil), t.held...)
	tr.Emit(trace.Event{
		Thread: t.ID, Kind: kind, Pos: pos, Name: name, Locks: held,
		Addr: uint64(uintptr(unsafe.Pointer(c))),
	})
}

// frame is a function activation: one cell per local slot. shared is nil
// when no other thread can touch these cells (the function has no
// parallel construct), and otherwise marks the slots accessed under their
// cells' locks (Interp.locked); the rest are private and accessed without
// one. Only a parallel-for iteration's view (fork) goes through a table of
// pointers, cells.
//
// A flat activation's record and cells are windows on its thread's stacks,
// given back zeroed on return. The step hook's view of such a record is
// read only while its thread is parked in the hook. A shared activation is
// on the heap, because the threads it spawns hold the record and a
// background thread may outlive it; so is the entry activation.
type frame struct {
	fn     *ast.FuncDecl
	own    []value.Cell
	cells  []*value.Cell // non-nil only in a forked view
	shared []bool
}

// bind stores the arguments of a call in the parameters' cells, converted
// to the parameter types. No other thread can see the cells yet.
func (f *frame) bind(args []value.Value) {
	for i, p := range f.fn.Params {
		f.own[p.Slot].StoreLocal(value.Convert(args[i], p.Type))
	}
}

// newFrame returns an activation of fn on the heap, its parameters bound
// to args.
func (in *Interp) newFrame(fn *ast.FuncDecl, args []value.Value) *frame {
	f := &frame{fn: fn, own: make([]value.Cell, fn.NumSlots), shared: in.locked[fn]}
	f.bind(args)
	return f
}

// cell returns the cell behind slot in this view of the activation.
func (f *frame) cell(slot int) *value.Cell {
	if f.cells != nil {
		return f.cells[slot]
	}
	return &f.own[slot]
}

// fork returns a view of the frame sharing every cell except slot, which is
// replaced by a fresh private cell — the parallel-for induction variable
// (paper §IV: "each thread needs to have its copy of the induction variable
// inserted into its private symbol table").
func (f *frame) fork(slot int, v value.Value) *frame {
	cells := make([]*value.Cell, f.fn.NumSlots)
	for i := range cells {
		cells[i] = f.cell(i)
	}
	cells[slot] = value.NewCell(v)
	return &frame{fn: f.fn, cells: cells, shared: f.shared}
}

// Var implements FrameView for the debugger's step hook.
func (f *frame) Var(slot int) value.Value { return f.cell(slot).Load() }

// load and store keep a flat activation's path small enough to inline
// into the evaluator; the path for an activation other threads can see is
// split out, and kept out of line, so its size does not cost the fast path
// that.
func (f *frame) load(slot int) value.Value {
	if f.shared != nil {
		return f.loadShared(slot)
	}
	return f.own[slot].LoadLocal()
}

func (f *frame) store(slot int, v value.Value) {
	if f.shared != nil {
		f.storeShared(slot, v)
		return
	}
	f.own[slot].StoreLocal(v)
}

//go:noinline
func (f *frame) loadShared(slot int) value.Value {
	if f.shared[slot] {
		return f.cell(slot).Load()
	}
	return f.cell(slot).LoadLocal()
}

//go:noinline
func (f *frame) storeShared(slot int, v value.Value) {
	if f.shared[slot] {
		f.cell(slot).Store(v)
		return
	}
	f.cell(slot).StoreLocal(v)
}

// chargeAlloc bills n cells (array elements or string bytes) against the
// governor's allocation budget. Called on the growth paths — range
// materialization, array literals, string concatenation — so unbounded
// data growth trips cleanly instead of OOM-killing the host.
func (t *thread) chargeAlloc(n int64, pos token.Pos) error {
	g := t.interp.guard
	if g == nil {
		return nil
	}
	if k := g.AddAlloc(n); k != guard.OK {
		return g.ErrAt(k, pos.String())
	}
	return nil
}

// enter runs the activation f, whose parameters are already stored, for
// the call at pos.
func (t *thread) enter(f *frame, pos token.Pos) (value.Value, error) {
	fn := f.fn
	if t.depth >= rt.MaxCallDepth {
		return value.Value{}, rt.Errorf(pos, "call stack exhausted (recursion deeper than %d)", rt.MaxCallDepth)
	}
	t.depth++
	t.emit(trace.Call, pos, fn.Name)
	// No thread but this one can see the activation yet. An array zero is
	// made here, per activation: arrays are references.
	for _, slot := range fn.ZeroSlots {
		f.own[slot].StoreLocal(value.Zero(fn.SlotTypes[slot]))
	}
	sig, err := t.execStmts(f, fn.Body.Stmts)
	t.emit(trace.Return, pos, fn.Name)
	t.depth--
	if err != nil {
		return value.Value{}, err
	}
	if sig == sigReturn {
		return t.ret, nil
	}
	// Falling off the end: void functions return nothing; value-returning
	// functions yield the zero value of their result type.
	if fn.Result != nil {
		return value.Zero(fn.Result), nil
	}
	return value.Value{}, nil
}

// signal is the non-error control-flow outcome of a statement.
type signal int

const (
	sigNone signal = iota
	sigReturn
	sigBreak
	sigContinue
)

// execStmts runs statements until one signals or fails. A statement costs
// no call of its own: each is run in this loop, after the prologue that
// checks for a stop, charges the governor and runs any instruments.
func (t *thread) execStmts(f *frame, stmts []ast.Stmt) (signal, error) {
	in := t.interp
	for _, s := range stmts {
		if in.rt.Stopped() {
			return sigNone, rt.ErrStopped
		}
		if in.guard != nil {
			// Batched fuel accounting: one local increment per statement,
			// one governor sync per guard.StepBatch statements.
			t.Pending++
			if t.Pending >= guard.StepBatch {
				if err := in.rt.Flush(&t.Thread, s.Pos()); err != nil {
					return sigNone, err
				}
			}
		}
		if in.watched {
			t.watch(f, s)
		}

		var sig signal
		var err error
		switch s := s.(type) {
		case *ast.ExprStmt:
			_, err = t.eval(f, s.X)

		case *ast.AssignStmt:
			err = t.execAssign(f, s)

		case *ast.IfStmt:
			var cond value.Value
			if cond, err = t.eval(f, s.Cond); err != nil {
				break
			}
			if cond.Bool() {
				sig, err = t.execStmts(f, s.Then.Stmts)
			} else if s.Else != nil {
				sig, err = t.execStmts(f, s.Else.Stmts)
			}

		case *ast.WhileStmt:
			sig, err = t.execWhile(f, s)

		case *ast.ForStmt:
			sig, err = t.execFor(f, s)

		case *ast.ParallelStmt:
			err = in.rt.Parallel(&t.Thread, len(s.Body.Stmts), t.spawns(f, s.Body.Stmts, s.Pos()))

		case *ast.BackgroundStmt:
			err = in.rt.Background(&t.Thread, len(s.Body.Stmts), t.spawns(f, s.Body.Stmts, s.Pos()))

		case *ast.ParallelForStmt:
			err = t.execParallelFor(f, s)

		case *ast.LockStmt:
			sig, err = t.execLock(f, s)

		case *ast.ReturnStmt:
			var v value.Value
			if s.Value != nil {
				if v, err = t.eval(f, s.Value); err != nil {
					break
				}
				v = value.Convert(v, f.fn.Result)
			}
			t.ret, sig = v, sigReturn

		case *ast.BreakStmt:
			sig = sigBreak
		case *ast.ContinueStmt:
			sig = sigContinue
		case *ast.PassStmt:
		default:
			err = rt.Errorf(s.Pos(), "internal: unknown statement %T", s)
		}
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

func (t *thread) execWhile(f *frame, s *ast.WhileStmt) (signal, error) {
	for {
		if t.interp.rt.Stopped() {
			return sigNone, rt.ErrStopped
		}
		cond, err := t.eval(f, s.Cond)
		if err != nil {
			return sigNone, err
		}
		if !cond.Bool() {
			return sigNone, nil
		}
		sig, err := t.execStmts(f, s.Body.Stmts)
		if err != nil {
			return sigNone, err
		}
		switch sig {
		case sigBreak:
			return sigNone, nil
		case sigReturn:
			return sigReturn, nil
		}
	}
}

func (t *thread) execFor(f *frame, s *ast.ForStmt) (signal, error) {
	seq, err := t.eval(f, s.Seq)
	if err != nil {
		return sigNone, err
	}
	iter := newIterator(seq)
	for i := 0; i < iter.len(); i++ {
		if t.interp.rt.Stopped() {
			return sigNone, rt.ErrStopped
		}
		f.store(s.Var.Slot, iter.at(i))
		sig, err := t.execStmts(f, s.Body.Stmts)
		if err != nil {
			return sigNone, err
		}
		switch sig {
		case sigBreak:
			return sigNone, nil
		case sigReturn:
			return sigReturn, nil
		}
	}
	return sigNone, nil
}

// watch runs the instruments at statement s: the work count, the
// debugger's step hook and the trace.
func (t *thread) watch(f *frame, s ast.Stmt) {
	in := t.interp
	if t.countWork {
		t.Work++
		if t.Work >= t.yieldAt {
			t.yieldAt = t.Work + workQuantum
			runtime.Gosched()
		}
	}
	if in.cfg.Step != nil {
		in.cfg.Step(t.ID, f.fn, s, f, t.depth)
	}
	if in.cfg.Tracer != nil {
		t.emit(trace.Step, s.Pos(), "")
	}
}

func (t *thread) execAssign(f *frame, s *ast.AssignStmt) error {
	v, ok := t.leaf(f, s.Value)
	var err error
	if !ok {
		if v, err = t.eval(f, s.Value); err != nil {
			return err
		}
	}
	switch target := s.Target.(type) {
	case *ast.Ident:
		if s.Op == token.ASSIGN {
			v = value.Convert(v, target.Type())
		} else {
			old := f.load(target.Slot)
			if f.shared != nil && t.interp.cfg.TraceVars {
				t.emitVar(trace.VarRead, target.Pos(), target.Name, f.cell(target.Slot))
			}
			// +=, -= and *= on ints cannot fail: applied without a call.
			if k := s.Kernel; k.Operands == ast.Ints && k.Op < sem.Div {
				v = value.NewInt(sem.ArithInt(k.Op, old.Int(), v.Int()))
			} else if v, err = t.operate(k, old, v, s.OpPos); err != nil {
				return err
			}
		}
		f.store(target.Slot, v)
		if f.shared != nil && t.interp.cfg.TraceVars {
			t.emitVar(trace.VarWrite, target.Pos(), target.Name, f.cell(target.Slot))
		}
		return nil

	case *ast.IndexExpr:
		arrV, err := t.eval(f, target.X)
		if err != nil {
			return err
		}
		idxV, err := t.eval(f, target.Index)
		if err != nil {
			return err
		}
		if arrV.K == value.Str {
			return sem.At(sem.ErrImmutableStr, target.Pos().String())
		}
		a := arrV.Array()
		i, err := sem.ArrayIndex(a, idxV.Int())
		if err != nil {
			return sem.At(err, target.Pos().String())
		}
		if s.Op == token.ASSIGN {
			v = value.Convert(v, target.Type())
		} else if v, err = t.operate(s.Kernel, a.Get(i), v, s.OpPos); err != nil {
			return err
		}
		a.Set(i, v)
		return nil
	}
	return rt.Errorf(s.Pos(), "internal: bad assignment target %T", s.Target)
}

// spawns describes the threads of a parallel or background block to the
// runtime: one per child statement, all sharing the frame f. A refusal by
// the thread budget is positioned at the block, pos, as on the VM.
func (t *thread) spawns(f *frame, stmts []ast.Stmt, pos token.Pos) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		nt := t.interp.newThread()
		return rt.Spawn{Pos: pos, Thread: &nt.Thread, Run: func() error {
			_, err := nt.execStmts(f, stmts[i:i+1])
			return err
		}}
	}
}

// execParallelFor evaluates the sequence once and hands the iterations to
// the runtime's chunked loop. Each iteration runs the body on a view of
// the frame with a private induction cell. When the induction variable is
// private and the body starts no thread, no iteration's cell outlives it,
// so a worker makes one view and stores each iteration's value in its
// cell; otherwise every iteration gets a view with a fresh cell.
func (t *thread) execParallelFor(f *frame, s *ast.ParallelForStmt) error {
	seq, err := t.eval(f, s.Seq)
	if err != nil {
		return err
	}
	iter := newIterator(seq)
	slot := s.Var.Slot
	reuse := !s.Spawns && (f.fn.Shared == nil || !f.fn.Shared[slot])
	return t.interp.rt.ParFor(&t.Thread, iter.len(), s.Pos(), func() (*rt.Thread, func(i int) error) {
		nt := t.interp.newThread()
		if reuse {
			view := f.fork(slot, value.Value{})
			return &nt.Thread, func(i int) error {
				view.store(slot, iter.at(i))
				_, err := nt.execStmts(view, s.Body.Stmts)
				return err
			}
		}
		return &nt.Thread, func(i int) error {
			_, err := nt.execStmts(f.fork(slot, iter.at(i)), s.Body.Stmts)
			return err
		}
	})
}

func (t *thread) execLock(f *frame, s *ast.LockStmt) (signal, error) {
	if err := t.interp.rt.Lock(&t.Thread, s.LockIndex, s.Pos()); err != nil {
		return sigNone, err
	}
	t.held = append(t.held, s.LockIndex)

	sig, err := t.execStmts(f, s.Body.Stmts)

	t.held = t.held[:len(t.held)-1]
	t.interp.rt.Unlock(&t.Thread, s.LockIndex, s.Pos())
	return sig, err
}

// iterator walks an array or a string via sem.Elements: strings are
// materialized as their Unicode characters once up front, so iteration
// never splits a multi-byte character.
type iterator struct {
	arr *value.Array
}

func newIterator(seq value.Value) iterator {
	return iterator{arr: sem.Elements(seq)}
}

func (it iterator) len() int { return it.arr.Len() }

func (it iterator) at(i int) value.Value { return it.arr.Get(i) }

// eval evaluates an expression to a value. A node costs a loop one call
// here: a private variable or a numeric literal operand is read in place
// (leaf), and an operator is applied in this function. Logical operators,
// indexing and calls have a function each, and the rest are in evalExpr.
func (t *thread) eval(f *frame, e ast.Expr) (value.Value, error) {
	if t.countWork {
		t.Work++
	}
	switch e := e.(type) {
	case *ast.Ident:
		if f.shared == nil {
			return f.own[e.Slot].LoadLocal(), nil
		}
	case *ast.IntLit:
		return value.NewInt(e.Value), nil
	case *ast.RealLit:
		return value.NewReal(e.Value), nil
	case *ast.BinaryExpr:
		if e.Op == token.AND || e.Op == token.OR {
			return t.evalLogical(f, e)
		}
		l, ok := t.leaf(f, e.X)
		if !ok {
			var err error
			if l, err = t.eval(f, e.X); err != nil {
				return value.Value{}, err
			}
		}
		r, ok := t.leaf(f, e.Y)
		if !ok {
			var err error
			if r, err = t.eval(f, e.Y); err != nil {
				return value.Value{}, err
			}
		}
		// The operators that cannot fail on two ints or two reals are
		// applied here, without a call; the rest in operate.
		switch k := e.Kernel; {
		case k.Operands == ast.Ints && k.Op < sem.Div:
			return value.NewInt(sem.ArithInt(k.Op, l.Int(), r.Int())), nil
		case k.Operands == ast.Ints && k.Op.IsCompare():
			return value.NewBool(sem.CompareInt(k.Op, l.Int(), r.Int())), nil
		case k.Operands == ast.Reals && k.Op < sem.Div:
			return value.NewReal(sem.ArithReal(k.Op, l.Real(), r.Real())), nil
		case k.Operands == ast.Reals && k.Op.IsCompare():
			return value.NewBool(sem.CompareReal(k.Op, l.Real(), r.Real())), nil
		}
		return t.operate(e.Kernel, l, r, e.OpPos)
	case *ast.IndexExpr:
		return t.evalIndex(f, e)
	case *ast.CallExpr:
		return t.evalCall(f, e)
	}
	return t.evalExpr(f, e)
}

func (t *thread) evalIndex(f *frame, e *ast.IndexExpr) (value.Value, error) {
	x, err := t.eval(f, e.X)
	if err != nil {
		return value.Value{}, err
	}
	idx, err := t.eval(f, e.Index)
	if err != nil {
		return value.Value{}, err
	}
	v, err := sem.Index(x, idx.Int())
	if err != nil {
		return value.Value{}, sem.At(err, e.Pos().String())
	}
	return v, nil
}

func (t *thread) evalExpr(f *frame, e ast.Expr) (value.Value, error) {
	switch e := e.(type) {
	case *ast.StringLit:
		return value.NewString(e.Value), nil
	case *ast.BoolLit:
		return value.NewBool(e.Value), nil

	case *ast.Ident: // in an activation other threads can see
		v := f.loadShared(e.Slot)
		if t.interp.cfg.TraceVars {
			t.emitVar(trace.VarRead, e.Pos(), e.Name, f.cell(e.Slot))
		}
		return v, nil

	case *ast.ArrayLit:
		elemType := e.Type().Elem()
		if err := t.chargeAlloc(int64(len(e.Elems)), e.Pos()); err != nil {
			return value.Value{}, err
		}
		elems := make([]value.Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := t.eval(f, el)
			if err != nil {
				return value.Value{}, err
			}
			elems[i] = value.Convert(v, elemType)
		}
		return value.NewArray(value.FromSlice(elemType, elems)), nil

	case *ast.RangeLit:
		lo, err := t.eval(f, e.Lo)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := t.eval(f, e.Hi)
		if err != nil {
			return value.Value{}, err
		}
		n, err := sem.RangeLen(lo.Int(), hi.Int())
		if err != nil {
			return value.Value{}, sem.At(err, e.Pos().String())
		}
		if err := t.chargeAlloc(n, e.Pos()); err != nil {
			return value.Value{}, err
		}
		return value.NewArray(value.NewIntRange(lo.Int(), int(n))), nil

	case *ast.UnaryExpr:
		v, err := t.eval(f, e.X)
		if err != nil {
			return value.Value{}, err
		}
		if e.Op == token.NOT {
			return sem.Not(v), nil
		}
		return sem.Neg(v), nil

	}
	return value.Value{}, rt.Errorf(e.Pos(), "internal: unknown expression %T", e)
}

// evalLogical evaluates and and or, which evaluate their right operand
// only when the left does not decide.
func (t *thread) evalLogical(f *frame, e *ast.BinaryExpr) (value.Value, error) {
	l, err := t.eval(f, e.X)
	if err != nil {
		return value.Value{}, err
	}
	if e.Op == token.AND && !l.Bool() {
		return value.NewBool(false), nil
	}
	if e.Op == token.OR && l.Bool() {
		return value.NewBool(true), nil
	}
	r, err := t.eval(f, e.Y)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewBool(r.Bool()), nil
}

// leaf reads an operand that is a private variable or a numeric literal
// in place, without a call to eval; ok is false for any other operand, and
// when work is counted.
func (t *thread) leaf(f *frame, e ast.Expr) (v value.Value, ok bool) {
	if t.countWork {
		return v, false
	}
	switch e := e.(type) {
	case *ast.Ident:
		if f.shared == nil {
			return f.own[e.Slot].LoadLocal(), true
		}
	case *ast.IntLit:
		return value.NewInt(e.Value), true
	case *ast.RealLit:
		return value.NewReal(e.Value), true
	}
	return v, false
}

// operate applies the kernel the checker resolved an operator to, at pos.
// The operand types are static, so a numeric operator goes straight to
// sem's kernel for them, its int side widened first when the other is
// real; only strings, bools and arrays take the generic path.
func (t *thread) operate(k ast.Kernel, l, r value.Value, pos token.Pos) (value.Value, error) {
	var err error
	switch k.Operands {
	case ast.Ints:
		a, b := l.Int(), r.Int()
		switch {
		case k.Op == sem.Div:
			a, err = sem.DivInt(a, b)
		case k.Op == sem.Mod:
			a, err = sem.ModInt(a, b)
		case k.Op.IsCompare():
			return value.NewBool(sem.CompareInt(k.Op, a, b)), nil
		default:
			a = sem.ArithInt(k.Op, a, b)
		}
		if err == nil {
			return value.NewInt(a), nil
		}
	case ast.Reals, ast.IntReal, ast.RealInt:
		a, b := l.Real(), r.Real()
		switch k.Operands {
		case ast.IntReal:
			a = sem.ToReal(l).Real()
		case ast.RealInt:
			b = sem.ToReal(r).Real()
		}
		switch {
		case k.Op == sem.Div:
			a, err = sem.DivReal(a, b)
		case k.Op == sem.Mod:
			a, err = sem.ModReal(a, b)
		case k.Op.IsCompare():
			return value.NewBool(sem.CompareReal(k.Op, a, b)), nil
		default:
			a = sem.ArithReal(k.Op, a, b)
		}
		if err == nil {
			return value.NewReal(a), nil
		}
	default:
		if k.Op.IsCompare() {
			return value.NewBool(sem.Compare(k.Op, l, r)), nil
		}
		var v value.Value
		if v, err = sem.Arith(k.Op, l, r); err == nil {
			// String concatenation is the one operator that grows data;
			// charge the built bytes so `s += s` loops trip.
			if err := t.chargeAlloc(int64(len(v.Str())), pos); err != nil {
				return value.Value{}, err
			}
			return v, nil
		}
	}
	return value.Value{}, sem.At(err, pos.String())
}

// evalCall evaluates the arguments into a window on the thread's argument
// stack, where a call among them claims and returns windows of its own,
// and only then calls. A builtin reads the window itself: no kernel keeps
// its argument slice, since the VM hands kernels a window of registers.
func (t *thread) evalCall(f *frame, e *ast.CallExpr) (value.Value, error) {
	args, sp := t.args.Claim(len(e.Args))
	for i, a := range e.Args {
		v, err := t.eval(f, a)
		if err != nil {
			t.args.Release(args, sp)
			return value.Value{}, err
		}
		args[i] = v
	}
	var v value.Value
	var err error
	if e.IsBuiltin {
		v, err = t.builtin(e, args)
	} else {
		v, err = t.call(t.interp.prog.Funcs[e.FuncIndex], args, e.Pos())
	}
	t.args.Release(args, sp)
	return v, err
}

// call runs fn on this thread for the call at pos, its arguments converted
// to the parameter types in its cells. A flat activation's record and
// cells are windows on the thread's stacks, given back on return.
func (t *thread) call(fn *ast.FuncDecl, args []value.Value, pos token.Pos) (value.Value, error) {
	if fn.HasParallel {
		return t.enter(t.interp.newFrame(fn, args), pos)
	}
	rec, rsp := t.frames.Claim(1)
	own, sp := t.cells.Claim(fn.NumSlots)
	f := &rec[0]
	f.fn, f.own = fn, own
	f.bind(args)
	v, err := t.enter(f, pos)
	t.cells.Release(own, sp)
	t.frames.Release(rec, rsp)
	return v, err
}

// builtin evaluates a library call over its argument values, converted to
// the parameter types where its row names them.
func (t *thread) builtin(e *ast.CallExpr, args []value.Value) (value.Value, error) {
	b := stdlib.ByID(e.Builtin)
	for i, p := range b.Params {
		args[i] = value.Convert(args[i], p)
	}
	if b.ID == stdlib.Print && t.interp.cfg.Tracer != nil {
		var parts []string
		for _, a := range args {
			parts = append(parts, a.String())
		}
		t.emit(trace.Output, e.Pos(), joinStrings(parts))
	}
	v, err := b.Eval(t.interp.env, args)
	if err != nil {
		return value.Value{}, rt.Errorf(e.Pos(), "%v", err)
	}
	return v, nil
}

func joinStrings(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p
	}
	return out
}
