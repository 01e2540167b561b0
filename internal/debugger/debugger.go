// Package debugger implements Tetra's parallel debugging engine — the
// reproduction of the paper's IDE capability (§III): "the Tetra IDE will
// have multiple code views in debug mode: one for each thread of the
// currently running program. This will allow students to step through the
// different threads independently."
//
// The engine runs a program on the tree-walking interpreter and intercepts
// every statement through the interpreter's step hook. Each Tetra thread
// gets its own cursor and can be stepped, resumed or parked independently
// of the others, which is exactly the facility the paper notes native
// debuggers cannot provide. Students can drive one thread all the way to a
// lock while another is held at its first statement, observing race and
// deadlock interleavings on purpose.
//
// The terminal front-end lives in cmd/tetradbg; this package is the
// programmatic API (and is how the debugger is tested).
package debugger

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/value"
)

// runMode is a thread's scheduling directive.
type runMode int

const (
	modePaused runMode = iota // park at the next statement
	modeStep                  // execute one statement, then pause
	modeNext                  // step over: pause at the next statement at
	// the same or a shallower call depth (calls run to completion)
	modeRunning // free-running (until breakpoint or PauseAll)
)

// ThreadState describes one Tetra thread as last seen by the engine.
type ThreadState struct {
	ID       int
	Func     string    // enclosing function name
	Pos      token.Pos // position of the pending statement
	Stmt     string    // pretty-printed pending statement
	Paused   bool      // parked inside the hook, waiting for a command
	Finished bool
}

// threadCtl is the engine's per-thread bookkeeping.
type threadCtl struct {
	state ThreadState
	mode  runMode
	fn    *ast.FuncDecl
	frame interp.FrameView
	depth int
	// nextDepth is the call depth at which a step-over was issued; the
	// thread re-parks at the first statement with depth <= nextDepth.
	nextDepth int
	// pauseGen increments every time the thread parks, so steppers can
	// distinguish a fresh pause from the one they resumed.
	pauseGen uint64
}

// Engine drives one debug session.
type Engine struct {
	in     *interp.Interp // the backend, built by New
	onPark func(ThreadState)

	mu     sync.Mutex
	cond   *sync.Cond
	thr    map[int]*threadCtl
	breaks map[int]bool // line numbers
	// defaultMode is applied to newly spawned threads: paused when the
	// session stops on entry (so students catch threads at birth), running
	// otherwise.
	defaultMode runMode
	done        bool
	runErr      error
}

// Config configures a session.
type Config struct {
	// Core is the execution configuration (I/O, tracing). The Step field is
	// overwritten by the engine.
	Core core.Config
	// StopOnEntry parks every thread at its first statement (default
	// semantics of the session; recommended).
	StopOnEntry bool
	// OnPark, when set, is invoked each time a thread parks in the hook,
	// with that thread's fresh state — the event feed for streaming
	// front-ends (internal/session). It is called with the engine lock
	// held: implementations must not block and must not call back into
	// the engine.
	OnPark func(ThreadState)
}

// New prepares (but does not start) a debug session for the program.
func New(prog *ast.Program, cfg Config) *Engine {
	e := &Engine{
		onPark: cfg.OnPark,
		thr:    map[int]*threadCtl{},
		breaks: map[int]bool{},
	}
	e.cond = sync.NewCond(&e.mu)
	if cfg.StopOnEntry {
		e.defaultMode = modePaused
	} else {
		e.defaultMode = modeRunning
	}
	// Deadlock detection is disabled so students can watch a deadlock form
	// thread by thread.
	ccfg := cfg.Core
	ccfg.Step = e.hook
	ccfg.Tracer = engineTracer{e: e, inner: ccfg.Tracer}
	ccfg.NoDeadlockDetection = true
	e.in = core.NewInterp(prog, ccfg)
	return e
}

// engineTracer observes thread-end events so the thread table shows
// finished threads promptly, forwarding everything to the user's tracer.
type engineTracer struct {
	e     *Engine
	inner trace.Tracer
}

func (t engineTracer) Emit(ev trace.Event) {
	if ev.Kind == trace.ThreadEnd {
		t.e.mu.Lock()
		if th, ok := t.e.thr[ev.Thread]; ok {
			th.state.Finished = true
			th.state.Paused = false
		}
		t.e.mu.Unlock()
		t.e.cond.Broadcast()
	}
	if t.inner != nil {
		t.inner.Emit(ev)
	}
}

// Start launches the program under the debugger. It returns immediately;
// use Wait or the stepping API to interact.
func (e *Engine) Start() {
	go func() {
		err := e.in.Run()
		e.mu.Lock()
		e.done = true
		e.runErr = err
		for _, t := range e.thr {
			t.state.Finished = true
			t.state.Paused = false
		}
		e.mu.Unlock()
		e.cond.Broadcast()
	}()
}

// Kill aborts the session: the backend is cancelled (tripping the governor
// when one is armed, waking lock- and input-parked threads) and every
// parked thread is released so it observes the stop at its next statement
// and unwinds. After Kill, Wait returns promptly with the cancellation
// error. Used by eviction and drain in internal/session — the liveness
// guarantee that no debug session can outlive its owner.
func (e *Engine) Kill() {
	e.in.Cancel()
	e.ContinueAll()
}

// Run is New + Start in one call.
func Run(prog *ast.Program, cfg Config) *Engine {
	e := New(prog, cfg)
	e.Start()
	return e
}

// hook is installed as the interpreter's step hook; every Tetra statement
// passes through here.
func (e *Engine) hook(threadID int, fn *ast.FuncDecl, stmt ast.Stmt, frame interp.FrameView, depth int) {
	e.mu.Lock()
	defer e.mu.Unlock()

	t := e.thr[threadID]
	if t == nil {
		t = &threadCtl{mode: e.defaultMode}
		t.state.ID = threadID
		e.thr[threadID] = t
	}
	t.fn = fn
	t.frame = frame
	t.depth = depth
	t.state.Func = fn.Name
	t.state.Pos = stmt.Pos()
	// Compound statements print with their whole body; the cursor display
	// only needs the header line.
	rendered := ast.PrintStmt(stmt, 0)
	if i := strings.IndexByte(rendered, '\n'); i >= 0 {
		rendered = rendered[:i] + " ..."
	}
	t.state.Stmt = rendered

	switch {
	case t.mode == modeStep:
		t.mode = modePaused
	case t.mode == modeNext && depth <= t.nextDepth:
		t.mode = modePaused
	case (t.mode == modeRunning || t.mode == modeNext) && e.breaks[stmt.Pos().Line]:
		t.mode = modePaused
	}
	if t.mode != modePaused {
		return
	}

	t.state.Paused = true
	t.pauseGen++
	if e.onPark != nil {
		e.onPark(t.state)
	}
	e.cond.Broadcast() // state changed: waiters can observe the pause
	for t.mode == modePaused && !e.done {
		e.cond.Wait()
	}
	t.state.Paused = false
}

// Threads returns a snapshot of all threads seen so far, ordered by id.
func (e *Engine) Threads() []ThreadState {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ThreadState, 0, len(e.thr))
	for _, t := range e.thr {
		out = append(out, t.state)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Thread returns the state of one thread.
func (e *Engine) Thread(id int) (ThreadState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.thr[id]
	if !ok {
		return ThreadState{}, false
	}
	return t.state, true
}

// StepResult reports how a step-and-wait call ended.
type StepResult int

// Step-and-wait outcomes.
const (
	// StepNoThread: the thread id is unknown or the thread had already
	// finished when the command was issued; no step happened.
	StepNoThread StepResult = iota
	// StepParked: the thread executed and parked at its next statement;
	// the returned state is that fresh park.
	StepParked
	// StepFinished: the thread (or the whole program) finished during the
	// step; the returned state is terminal.
	StepFinished
	// StepTimeout: the deadline expired before the thread re-parked. The
	// stepped statement is still in flight (a contended lock, a blocking
	// read) and the returned state is a point-in-time snapshot that may
	// be stale by the time the caller reads it.
	StepTimeout
)

// String names the outcome for logs and wire protocols.
func (r StepResult) String() string {
	switch r {
	case StepNoThread:
		return "no-thread"
	case StepParked:
		return "parked"
	case StepFinished:
		return "finished"
	case StepTimeout:
		return "timeout"
	}
	return fmt.Sprintf("StepResult(%d)", int(r))
}

// live returns the thread's control block when the thread exists and has
// not finished. Must hold e.mu. This is THE finished-thread gate: Step,
// Next, Continue, Pause, StepAndWait and NextAndWait all consult it, so
// the contract — commands against unknown or finished threads report
// failure and change nothing — cannot drift between entry points again.
func (e *Engine) live(id int) (*threadCtl, bool) {
	t, ok := e.thr[id]
	if !ok || t.state.Finished {
		return nil, false
	}
	return t, true
}

// Step lets thread id execute exactly one statement. It reports whether
// the thread exists and has not finished (the same contract as Next,
// Continue and Pause; a finished thread rejects all commands).
func (e *Engine) Step(id int) bool { return e.setMode(id, modeStep) }

// Next steps over: thread id executes until the next statement at its
// current (or a shallower) call depth, so function calls complete without
// stopping inside them. Like Step, it reports false for unknown or
// finished threads.
func (e *Engine) Next(id int) bool { return e.setMode(id, modeNext) }

// NextAndWait is Next plus waiting for the re-park, mirroring StepAndWait.
func (e *Engine) NextAndWait(id int, timeout time.Duration) (ThreadState, StepResult) {
	return e.stepWait(id, modeNext, timeout)
}

// StepAndWait executes one statement on thread id and blocks until the
// thread parks at its next statement, finishes, or the timeout expires —
// the StepResult says which, so a deadline expiry can never be mistaken
// for a successful park (it used to report success with a stale state).
func (e *Engine) StepAndWait(id int, timeout time.Duration) (ThreadState, StepResult) {
	return e.stepWait(id, modeStep, timeout)
}

// stepWait issues a step/step-over and waits for the thread's next park.
func (e *Engine) stepWait(id int, m runMode, timeout time.Duration) (ThreadState, StepResult) {
	deadline := time.Now().Add(timeout)
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.live(id)
	if !ok {
		return ThreadState{}, StepNoThread
	}
	gen := t.pauseGen
	e.direct(t, m)
	for {
		if t.state.Finished || e.done {
			return t.state, StepFinished
		}
		if t.state.Paused && t.pauseGen > gen {
			return t.state, StepParked
		}
		if time.Now().After(deadline) {
			return t.state, StepTimeout
		}
		// The stepped statement may block forever (a contended lock, a
		// read); the deadline keeps the UI responsive.
		e.waitWithDeadline(deadline)
	}
}

// Continue lets thread id run freely until a breakpoint or PauseAll.
// Reports false for unknown or finished threads.
func (e *Engine) Continue(id int) bool { return e.setMode(id, modeRunning) }

// Pause parks thread id at its next statement. Reports false for unknown
// or finished threads.
func (e *Engine) Pause(id int) bool { return e.setMode(id, modePaused) }

func (e *Engine) setMode(id int, m runMode) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.live(id)
	if !ok {
		return false
	}
	e.direct(t, m)
	return true
}

// direct gives a live thread its new directive; a step-over is measured
// from the call depth the thread is at now. Must hold e.mu.
func (e *Engine) direct(t *threadCtl, m runMode) {
	if m == modeNext {
		t.nextDepth = t.depth
	}
	t.mode = m
	e.cond.Broadcast()
}

// ContinueAll resumes every thread (and makes future threads free-running).
func (e *Engine) ContinueAll() {
	e.mu.Lock()
	e.defaultMode = modeRunning
	for _, t := range e.thr {
		if !t.state.Finished {
			t.mode = modeRunning
		}
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// PauseAll parks every thread at its next statement (and makes future
// threads start paused).
func (e *Engine) PauseAll() {
	e.mu.Lock()
	e.defaultMode = modePaused
	for _, t := range e.thr {
		if !t.state.Finished {
			t.mode = modePaused
		}
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// SetBreak sets a breakpoint on a source line (any thread reaching a
// statement that starts on that line pauses).
func (e *Engine) SetBreak(line int) {
	e.mu.Lock()
	e.breaks[line] = true
	e.mu.Unlock()
}

// ClearBreak removes a breakpoint.
func (e *Engine) ClearBreak(line int) {
	e.mu.Lock()
	delete(e.breaks, line)
	e.mu.Unlock()
}

// Breakpoints lists the active breakpoint lines, sorted.
func (e *Engine) Breakpoints() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.breaks))
	for l := range e.breaks {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Why Vars shows no variables: the thread is unknown or finished, or it is
// running in a flat function. The messages are the session protocol's
// result words.
var (
	ErrNoThread = errors.New("no-thread")
	ErrRunning  = errors.New("running")
)

// Vars returns the variables of thread id's current frame: names paired
// with values, in slot order. A frame of a function with parallel
// constructs is on the heap and its cells are locked, so it answers for
// one at any time: a thread blocked in a `parallel:` join or a lock shows
// what its children have written so far. A flat frame is the thread's own,
// written without a lock and reused once the call returns, so it answers
// for one only while the thread is parked in the hook.
func (e *Engine) Vars(id int) ([]string, []value.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.live(id)
	if !ok {
		return nil, nil, ErrNoThread
	}
	if !t.state.Paused && !t.fn.HasParallel {
		return nil, nil, ErrRunning
	}
	names := make([]string, len(t.fn.SlotNames))
	vals := make([]value.Value, len(t.fn.SlotNames))
	for i, n := range t.fn.SlotNames {
		names[i] = n
		vals[i] = t.frame.Var(i)
	}
	return names, vals, nil
}

// WaitPaused blocks until thread id is parked in the hook (or the program
// ends, or the timeout expires). It reports whether the thread is paused.
func (e *Engine) WaitPaused(id int, timeout time.Duration) bool {
	return e.waitParked(1, timeout, func(t *threadCtl) bool { return t.state.ID == id }) == 1
}

// WaitAnyPaused blocks until at least n threads are parked, or the program
// ends or the timeout expires. It returns the number of parked threads.
func (e *Engine) WaitAnyPaused(n int, timeout time.Duration) int {
	return e.waitParked(n, timeout, func(*threadCtl) bool { return true })
}

// waitParked waits for n of the threads that match to be parked and returns
// how many are. A thread counts as parked only when it is in the hook AND
// still directed to stay there — a thread just released by Step/Continue
// keeps state.Paused until it wakes, which must not satisfy a waiter issued
// after the release.
func (e *Engine) waitParked(n int, timeout time.Duration, match func(*threadCtl) bool) int {
	deadline := time.Now().Add(timeout)
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		paused := 0
		for _, t := range e.thr {
			if match(t) && t.state.Paused && t.mode == modePaused {
				paused++
			}
		}
		if paused >= n || e.done || time.Now().After(deadline) {
			return paused
		}
		e.waitWithDeadline(deadline)
	}
}

// Wait blocks until the program finishes and returns its error (nil on a
// clean run).
func (e *Engine) Wait() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.done {
		e.cond.Wait()
	}
	return e.runErr
}

// Done reports whether the program has finished.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// waitWithDeadline waits on the condition variable but wakes itself at the
// deadline, so WaitPaused cannot hang past its timeout. Must hold e.mu.
func (e *Engine) waitWithDeadline(deadline time.Time) {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return
	}
	timer := time.AfterFunc(remaining, func() { e.cond.Broadcast() })
	e.cond.Wait()
	timer.Stop()
}

// Render formats the thread table as the CLI shows it:
//
//	id  state    where
//	t0  paused   main  max.ttr:12:5   nums = [18, 32, 96, 48, 60]
func Render(threads []ThreadState) string {
	var sb strings.Builder
	sb.WriteString("  id  state     function  position        next statement\n")
	for _, t := range threads {
		state := "running"
		if t.Finished {
			state = "finished"
		} else if t.Paused {
			state = "paused"
		}
		pos := "-"
		if t.Pos.IsValid() {
			pos = fmt.Sprintf("%d:%d", t.Pos.Line, t.Pos.Col)
		}
		fmt.Fprintf(&sb, "  t%-3d %-9s %-9s %-15s %s\n", t.ID, state, t.Func, pos, t.Stmt)
	}
	return sb.String()
}
