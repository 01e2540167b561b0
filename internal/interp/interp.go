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
}

// WorkProfile returns the per-thread work counts recorded during the last
// Run/Call when Config.CountWork was set. Order is completion order.
func (in *Interp) WorkProfile() []ThreadWork { return in.rt.WorkProfile() }

// New returns an interpreter that runs the checked program as cfg says.
func New(prog *ast.Program, cfg rt.Config) *Interp {
	r := rt.New(cfg, prog.LockNames)
	return &Interp{prog: prog, cfg: cfg, guard: r.Guard(), env: r.Env(), rt: r}
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
		v, err = t.enter(newFrame(f, args), f.Pos())
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

// frame is a function activation: one cell per local slot. shared reports
// whether other threads may touch these cells (the function contains
// parallel constructs), selecting locked vs. unlocked cell access. Only a
// parallel-for iteration's view (fork) goes through a table of pointers,
// cells.
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
	shared bool
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
func newFrame(fn *ast.FuncDecl, args []value.Value) *frame {
	f := &frame{fn: fn, own: make([]value.Cell, fn.NumSlots), shared: fn.HasParallel}
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
	return &frame{fn: f.fn, cells: cells, shared: true}
}

// Var implements FrameView for the debugger's step hook.
func (f *frame) Var(slot int) value.Value { return f.cell(slot).Load() }

// load and store keep the thread-private path small enough to inline into
// the evaluator; the path for an activation other threads can see is split
// out, and kept out of line, so its size does not cost the fast path that.
func (f *frame) load(slot int) value.Value {
	if f.shared {
		return f.loadShared(slot)
	}
	return f.own[slot].LoadLocal()
}

func (f *frame) store(slot int, v value.Value) {
	if f.shared {
		f.storeShared(slot, v)
		return
	}
	f.own[slot].StoreLocal(v)
}

//go:noinline
func (f *frame) loadShared(slot int) value.Value { return f.cell(slot).Load() }

//go:noinline
func (f *frame) storeShared(slot int, v value.Value) { f.cell(slot).Store(v) }

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
	sig, err := t.execBlock(f, fn.Body)
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

func (t *thread) execBlock(f *frame, b *ast.Block) (signal, error) {
	for _, s := range b.Stmts {
		sig, err := t.exec(f, s)
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

func (t *thread) exec(f *frame, s ast.Stmt) (signal, error) {
	in := t.interp
	if in.rt.Stopped() {
		return sigNone, rt.ErrStopped
	}
	if in.guard != nil {
		// Batched fuel accounting: one local increment per statement, one
		// governor sync per guard.StepBatch statements.
		t.Pending++
		if t.Pending >= guard.StepBatch {
			if err := in.rt.Flush(&t.Thread, s.Pos()); err != nil {
				return sigNone, err
			}
		}
	}
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

	switch s := s.(type) {
	case *ast.ExprStmt:
		_, err := t.eval(f, s.X)
		return sigNone, err

	case *ast.AssignStmt:
		return sigNone, t.execAssign(f, s)

	case *ast.IfStmt:
		cond, err := t.eval(f, s.Cond)
		if err != nil {
			return sigNone, err
		}
		if cond.Bool() {
			return t.execBlock(f, s.Then)
		}
		if s.Else != nil {
			return t.execBlock(f, s.Else)
		}
		return sigNone, nil

	case *ast.WhileStmt:
		for {
			if in.rt.Stopped() {
				return sigNone, rt.ErrStopped
			}
			cond, err := t.eval(f, s.Cond)
			if err != nil {
				return sigNone, err
			}
			if !cond.Bool() {
				return sigNone, nil
			}
			sig, err := t.execBlock(f, s.Body)
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

	case *ast.ForStmt:
		seq, err := t.eval(f, s.Seq)
		if err != nil {
			return sigNone, err
		}
		iter := newIterator(seq)
		for i := 0; i < iter.len(); i++ {
			if in.rt.Stopped() {
				return sigNone, rt.ErrStopped
			}
			f.store(s.Var.Slot, iter.at(i))
			sig, err := t.execBlock(f, s.Body)
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

	case *ast.ParallelStmt:
		return sigNone, in.rt.Parallel(&t.Thread, len(s.Body.Stmts), t.spawns(f, s.Body.Stmts))

	case *ast.BackgroundStmt:
		return sigNone, in.rt.Background(&t.Thread, len(s.Body.Stmts), t.spawns(f, s.Body.Stmts))

	case *ast.ParallelForStmt:
		return sigNone, t.execParallelFor(f, s)

	case *ast.LockStmt:
		return t.execLock(f, s)

	case *ast.ReturnStmt:
		if s.Value != nil {
			v, err := t.eval(f, s.Value)
			if err != nil {
				return sigNone, err
			}
			t.ret = value.Convert(v, f.fn.Result)
		} else {
			t.ret = value.Value{}
		}
		return sigReturn, nil

	case *ast.BreakStmt:
		return sigBreak, nil
	case *ast.ContinueStmt:
		return sigContinue, nil
	case *ast.PassStmt:
		return sigNone, nil
	}
	return sigNone, rt.Errorf(s.Pos(), "internal: unknown statement %T", s)
}

func (t *thread) execAssign(f *frame, s *ast.AssignStmt) error {
	v, err := t.eval(f, s.Value)
	if err != nil {
		return err
	}
	switch target := s.Target.(type) {
	case *ast.Ident:
		if s.Op != token.ASSIGN {
			old := f.load(target.Slot)
			if t.interp.cfg.TraceVars && f.shared {
				t.emitVar(trace.VarRead, target.Pos(), target.Name, f.cell(target.Slot))
			}
			v, err = sem.Arith(augOp(s.Op), old, v)
			if err != nil {
				return sem.At(err, s.OpPos.String())
			}
			if v.K == value.Str {
				if cerr := t.chargeAlloc(int64(len(v.Str())), s.OpPos); cerr != nil {
					return cerr
				}
			}
		}
		v = value.Convert(v, target.Type())
		f.store(target.Slot, v)
		if t.interp.cfg.TraceVars && f.shared {
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
		if s.Op != token.ASSIGN {
			v, err = sem.Arith(augOp(s.Op), a.Get(i), v)
			if err != nil {
				return sem.At(err, s.OpPos.String())
			}
			if v.K == value.Str {
				if cerr := t.chargeAlloc(int64(len(v.Str())), s.OpPos); cerr != nil {
					return cerr
				}
			}
		}
		a.Set(i, value.Convert(v, target.Type()))
		return nil
	}
	return rt.Errorf(s.Pos(), "internal: bad assignment target %T", s.Target)
}

// augOp maps an augmented-assignment token to the sem operator it applies.
func augOp(k token.Kind) sem.Op {
	switch k {
	case token.PLUSASSIGN:
		return sem.Add
	case token.MINUSASSIGN:
		return sem.Sub
	case token.STARASSIGN:
		return sem.Mul
	case token.SLASHASSIGN:
		return sem.Div
	default:
		return sem.Mod
	}
}

// spawns describes the threads of a parallel or background block to the
// runtime: one per child statement, all sharing the frame f.
func (t *thread) spawns(f *frame, stmts []ast.Stmt) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		nt := t.interp.newThread()
		child := stmts[i]
		return rt.Spawn{Pos: child.Pos(), Thread: &nt.Thread, Run: func() error {
			_, err := nt.exec(f, child)
			return err
		}}
	}
}

// execParallelFor evaluates the sequence once and hands the iterations to
// the runtime's chunked loop. Each iteration runs the body on a view of
// the frame with a private induction cell.
func (t *thread) execParallelFor(f *frame, s *ast.ParallelForStmt) error {
	seq, err := t.eval(f, s.Seq)
	if err != nil {
		return err
	}
	iter := newIterator(seq)
	return t.interp.rt.ParFor(&t.Thread, iter.len(), s.Pos(), func() (*rt.Thread, func(i int) error) {
		nt := t.interp.newThread()
		return &nt.Thread, func(i int) error {
			_, err := nt.execBlock(f.fork(s.Var.Slot, iter.at(i)), s.Body)
			return err
		}
	})
}

func (t *thread) execLock(f *frame, s *ast.LockStmt) (signal, error) {
	if err := t.interp.rt.Lock(&t.Thread, s.LockIndex, s.Pos()); err != nil {
		return sigNone, err
	}
	t.held = append(t.held, s.LockIndex)

	sig, err := t.execBlock(f, s.Body)

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

// eval evaluates an expression to a value.
func (t *thread) eval(f *frame, e ast.Expr) (value.Value, error) {
	if t.countWork {
		t.Work++
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return value.NewInt(e.Value), nil
	case *ast.RealLit:
		return value.NewReal(e.Value), nil
	case *ast.StringLit:
		return value.NewString(e.Value), nil
	case *ast.BoolLit:
		return value.NewBool(e.Value), nil

	case *ast.Ident:
		v := f.load(e.Slot)
		if t.interp.cfg.TraceVars && f.shared {
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

	case *ast.BinaryExpr:
		return t.evalBinary(f, e)

	case *ast.IndexExpr:
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

	case *ast.CallExpr:
		return t.evalCall(f, e)
	}
	return value.Value{}, rt.Errorf(e.Pos(), "internal: unknown expression %T", e)
}

func (t *thread) evalBinary(f *frame, e *ast.BinaryExpr) (value.Value, error) {
	// Short-circuit logical operators.
	if e.Op == token.AND || e.Op == token.OR {
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

	l, err := t.eval(f, e.X)
	if err != nil {
		return value.Value{}, err
	}
	r, err := t.eval(f, e.Y)
	if err != nil {
		return value.Value{}, err
	}

	op := binOp(e.Op)
	if op.IsCompare() {
		return value.NewBool(sem.Compare(op, l, r)), nil
	}
	v, err := sem.Arith(op, l, r)
	if err != nil {
		return value.Value{}, sem.At(err, e.OpPos.String())
	}
	if v.K == value.Str {
		// String concatenation is the one arithmetic op that grows
		// data; charge the built bytes so `s += s` loops trip.
		if cerr := t.chargeAlloc(int64(len(v.Str())), e.OpPos); cerr != nil {
			return value.Value{}, cerr
		}
	}
	return v, nil
}

// binOp maps a binary-operator token to its sem operator. The mapping is
// the interpreter's only operator knowledge; evaluation lives in sem.
func binOp(k token.Kind) sem.Op {
	switch k {
	case token.PLUS:
		return sem.Add
	case token.MINUS:
		return sem.Sub
	case token.STAR:
		return sem.Mul
	case token.SLASH:
		return sem.Div
	case token.PERCENT:
		return sem.Mod
	case token.EQ:
		return sem.Eq
	case token.NE:
		return sem.Ne
	case token.LT:
		return sem.Lt
	case token.LE:
		return sem.Le
	case token.GT:
		return sem.Gt
	default:
		return sem.Ge
	}
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
		return t.enter(newFrame(fn, args), pos)
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
