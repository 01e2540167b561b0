// Package rt is the thread runtime under all three of Tetra's backends:
// the tree-walking interpreter (internal/interp), the register VM
// (internal/vm) and natively compiled programs (internal/gort, the support
// library of internal/gogen's generated Go). It implements the paper's §IV thread model once: one
// thread per `parallel` child, detached `background` threads, a chunked
// `parallel for` whose every iteration is still its own Tetra thread, and
// named `lock` blocks.
//
// A Runtime owns everything about that model that does not depend on how a
// body executes: thread identity, the governor's thread accounting and its
// trip → wake hook, the stop flag and first-error slot, the background
// join, trace events for threads and locks, work profiles, and the lock
// table with interruptible parking. A backend supplies only the bodies (an
// AST block, a bytecode chunk or a generated Go closure) and charges steps by incrementing
// Thread.Pending inline on its own thread struct, calling Flush once per
// guard.StepBatch steps.
//
// A run is described once, by Config: tetra.Config and core.Config are this
// struct and both engines' constructors take it; New turns it into the
// run's streams, its governor and its runtime.
//
// Generated code passes each thread's *Thread down its calls, and gort
// adapts its panics to the error a body returns, so a compiled program's
// deadlock, thread-budget refusal and failure under a lock are diagnosed
// and woken here exactly as the engines' are.
package rt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/deadlock"
	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/value"
)

// ErrStopped is what a thread returns when it unwinds because another
// thread already failed or the run was cancelled. It is never surfaced:
// the error that caused the stop is the one the run reports.
var ErrStopped = errors.New("stopped")

// MaxCallDepth bounds the activations one thread may have in progress, so
// runaway recursion becomes a positioned runtime error instead of a Go
// stack fault, and an engine's per-thread call stack stays bounded. Every
// backend refuses the call that would exceed it.
const MaxCallDepth = 10000

// FrameView gives a step hook read access to the executing frame's
// variables by slot (see ast.FuncDecl.SlotNames for the slot→name table).
// A frame of a function without parallel constructs is its thread's own:
// read it only while that thread is inside the hook.
type FrameView interface {
	Var(slot int) value.Value
}

// StepHook is called before every statement executes, identifying the Tetra
// thread, the enclosing function, the statement, the live frame, and the
// thread's call depth (1 = the thread's entry function). The debugger parks
// threads by blocking inside the hook and uses depth to implement
// step-over. Hooks must be safe for concurrent calls.
type StepHook func(threadID int, fn *ast.FuncDecl, stmt ast.Stmt, frame FrameView, depth int)

// Config describes one program run. The zero value runs unbounded with no
// input, printing to os.Stdout. The VM is the fast path and records no
// events: it ignores Tracer, TraceVars, Step and CountWork.
type Config struct {
	// Stdin is the program's input for read_int and friends. Defaults to an
	// empty stream.
	Stdin io.Reader
	// Stdout receives print output. Defaults to os.Stdout.
	Stdout io.Writer
	// Tracer, when non-nil, receives execution events (see
	// trace.NewCollector).
	Tracer trace.Tracer
	// TraceVars additionally records reads and writes of variables in
	// thread-shared frames, enabling race detection. Slower; requires
	// Tracer.
	TraceVars bool
	// Step, when non-nil, is called before every statement; the debugger is
	// built on this hook.
	Step StepHook
	// NoWaitBackground makes a run return without joining background
	// threads (the C++ system's process-exit semantics). By default it
	// waits, which is safer for library use.
	NoWaitBackground bool
	// NoDeadlockDetection disables the live wait-for-graph check, which
	// refuses a lock acquisition that would close a cycle with an
	// explanatory error, so that deadlocks genuinely hang.
	NoDeadlockDetection bool
	// Limits bounds the run's resources (wall clock, steps, threads,
	// output, allocation) for executing untrusted programs; a tripped
	// budget ends the run with a positioned runtime error. The zero value
	// leaves execution unbounded. See guard.Limits.WithSandboxDefaults.
	Limits guard.Limits
	// Sched controls how `parallel for` loops are scheduled: Workers caps
	// the goroutine pool per loop (default GOMAXPROCS) and Grain sets the
	// chunk size (default max(1, n/(workers*8))). Each iteration remains
	// its own Tetra thread.
	Sched sched.Config
	// CountWork makes every interpreter thread count the AST nodes it
	// executes (and yield every workQuantum of them); WorkProfile has the
	// totals after the run, which feed the virtual multicore simulator
	// (internal/simsched).
	CountWork bool
}

// Thread is the engine-independent part of one Tetra thread. Engines embed
// it by value in their own thread struct so that charging a step stays a
// field increment.
type Thread struct {
	ID     int
	Parent int          // -1 for a main thread
	Tally  *guard.Tally // where Flush credits this thread's steps
	// Pending counts steps taken since the last Flush. A parallel-for
	// worker carries it from one iteration to the next, so bodies shorter
	// than guard.StepBatch are still charged.
	Pending int32
	// Work counts executed AST nodes when the engine profiles work.
	Work int64
}

// ThreadWork is one thread's contribution to a work profile.
type ThreadWork struct {
	ID     int
	Parent int   // -1 for the main thread
	Work   int64 // executed AST nodes
}

// Runtime is the shared state of one program run.
type Runtime struct {
	// Stopped and the spawn paths are inlined into the engines' loops. What
	// they touch stays within the first 128 bytes, where an instruction
	// reaches it with a one-byte offset, so that the size of Config does not
	// move the loops' code about (run_loops read 5-8 % slower when it did).
	guard      *guard.Governor // nil when no limit is set
	stopped    atomic.Bool
	nextThread atomic.Int64
	background sync.WaitGroup

	cfg       Config
	lockNames []string      // a lock's index is its id
	env       *stdlib.Env   // the run's I/O
	grace     time.Duration // bound on the background join of a failed run

	mu      sync.Mutex // guards err and profile
	err     error
	profile []ThreadWork

	// All lock state transitions happen under lockMu; waiters park on cond
	// and are woken by a broadcast on any release, Cancel or governor trip.
	// Lock operations are rare next to ordinary statements, and the single
	// mutex is what makes the wait-for-graph check atomic.
	lockMu sync.Mutex
	cond   *sync.Cond
	graph  *deadlock.Graph
}

// New returns the runtime for one run of a program whose locks are
// lockNames, with the run's I/O environment and, when a limit is set, the
// one governor that environment and the engine share.
func New(cfg Config, lockNames []string) *Runtime {
	if cfg.Stdin == nil {
		cfg.Stdin = strings.NewReader("")
	}
	if cfg.Stdout == nil {
		cfg.Stdout = os.Stdout
	}
	r := &Runtime{
		cfg:       cfg,
		lockNames: lockNames,
		env:       stdlib.NewEnv(cfg.Stdin, cfg.Stdout),
		grace:     guard.DefaultGrace,
		graph:     deadlock.NewGraph(lockNames),
	}
	r.cond = sync.NewCond(&r.lockMu)
	if cfg.Limits.Enabled() {
		r.guard = guard.New(cfg.Limits)
		r.env.SetGuard(r.guard)
		r.guard.OnTrip(r.wake)
	}
	return r
}

// Env returns the run's I/O environment, which builtins evaluate in.
func (r *Runtime) Env() *stdlib.Env { return r.env }

// Guard returns the run's governor, nil when no limit is set.
func (r *Runtime) Guard() *guard.Governor { return r.guard }

// Stopped reports whether the run has failed or been cancelled; engines
// poll it at statement boundaries, calls and loop back-edges.
func (r *Runtime) Stopped() bool { return r.stopped.Load() }

// Err returns the first error any thread raised.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// fail records err as the run's error unless one is already recorded, and
// stops every thread: running ones at their next check, parked ones now —
// the failed thread may have died holding the lock they wait for.
// ErrStopped is only an echo of an earlier failure.
func (r *Runtime) fail(err error) {
	if err == nil || err == ErrStopped {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	if !r.stopped.Swap(true) {
		r.wake()
	}
}

// Cancel asks every thread to stop at its next check and wakes the ones
// parked on a lock.
func (r *Runtime) Cancel() {
	r.fail(errors.New("execution cancelled"))
	if r.guard != nil {
		r.guard.Cancel()
	}
}

// WorkProfile returns the per-thread work recorded so far, in completion
// order.
func (r *Runtime) WorkProfile() []ThreadWork {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ThreadWork(nil), r.profile...)
}

// Flush charges t's pending steps to the governor and returns the
// positioned error if a limit has tripped. Only call it with a governor
// attached.
func (r *Runtime) Flush(t *Thread, pos token.Pos) error {
	n := t.Pending
	t.Pending = 0
	if k := r.guard.StepN(t.Tally, int64(n)); k != guard.OK {
		return r.guard.ErrAt(k, pos.String())
	}
	return nil
}

// Emit sends one event on behalf of t when a tracer is attached.
func (r *Runtime) Emit(t *Thread, kind trace.Kind, pos token.Pos, name string) {
	if tr := r.cfg.Tracer; tr != nil {
		tr.Emit(trace.Event{Thread: t.ID, Kind: kind, Pos: pos, Name: name})
	}
}

// identify makes t the next new thread, a child of parent. The tally is
// kept when t is reused (a parallel-for worker runs many threads), so a
// governed loop registers one tally per worker, not one per iteration.
func (r *Runtime) identify(t *Thread, parent int) {
	t.ID = int(r.nextThread.Add(1)) - 1
	t.Parent = parent
	t.Work = 0
	if t.Tally == nil && r.guard != nil {
		t.Tally = r.guard.NewTally(t.ID)
	}
}

// started announces thread t.
func (r *Runtime) started(t *Thread) {
	if tr := r.cfg.Tracer; tr != nil {
		tr.Emit(trace.Event{Thread: t.ID, Parent: t.Parent, Kind: trace.ThreadStart})
	}
}

// ended closes thread t, whose body returned err: its end event, its work
// record, and its error.
func (r *Runtime) ended(t *Thread, err error) {
	r.Emit(t, trace.ThreadEnd, token.Pos{}, "")
	if r.cfg.CountWork {
		r.mu.Lock()
		r.profile = append(r.profile, ThreadWork{ID: t.ID, Parent: t.Parent, Work: t.Work})
		r.mu.Unlock()
	}
	r.fail(err)
}

// admit charges one live thread to the governor, or returns the refusal
// positioned at pos. Every admit is paired with one retire.
func (r *Runtime) admit(pos token.Pos) error {
	if r.guard == nil {
		return nil
	}
	if k := r.guard.ThreadStart(); k != guard.OK {
		return r.guard.ErrAt(k, pos.String())
	}
	return nil
}

// retire ends a goroutine admitted at pos that last ran thread t: steps
// still pending are charged, so short threads are paid for too.
func (r *Runtime) retire(t *Thread, pos token.Pos) {
	if r.guard == nil {
		return
	}
	if t.Pending > 0 {
		r.fail(r.Flush(t, pos))
	}
	r.guard.ThreadDone()
}

// Main runs body as a main thread t: it arms the governor, joins the
// background threads afterwards, and returns the run's first error.
func (r *Runtime) Main(t *Thread, body func() error) error {
	if r.guard != nil {
		r.guard.Start()
		defer r.guard.Stop()
		// The main thread counts against MaxThreads.
		if r.guard.ThreadStart() == guard.OK {
			defer r.guard.ThreadDone()
		}
	}
	r.identify(t, -1)
	r.started(t)
	r.ended(t, body())
	if !r.cfg.NoWaitBackground {
		r.joinBackground()
	}
	return r.Err()
}

// joinBackground waits for background threads. When the run already failed
// or a limit tripped, the join is bounded by a grace period: every healthy
// thread observes the stop at its next check, but a thread stuck in a
// blocking operation the governor cannot interrupt must not wedge the run.
func (r *Runtime) joinBackground() {
	if r.guard != nil && (r.Err() != nil || r.guard.Tripped() != guard.OK) {
		guard.WaitGroup(&r.background, r.grace)
		return
	}
	r.background.Wait()
}

// Spawn is one thread for Parallel or Background to launch.
type Spawn struct {
	Pos    token.Pos    // where a thread-budget refusal is reported
	Thread *Thread      // the new engine thread's embedded Thread
	Run    func() error // the thread's body
}

// Parallel runs n threads, the i-th described by spawn(i), and waits for
// all of them (paper §II: fork-join over a block's statements). A refusal
// by the thread budget stops the launching and is returned once the
// threads already started have finished.
func (r *Runtime) Parallel(parent *Thread, n int, spawn func(i int) Spawn) error {
	var wg sync.WaitGroup
	refused := r.launch(&wg, parent, n, spawn)
	wg.Wait()
	return r.joined(refused)
}

// Background launches n threads like Parallel and returns without waiting;
// Main joins them.
func (r *Runtime) Background(parent *Thread, n int, spawn func(i int) Spawn) error {
	return r.launch(&r.background, parent, n, spawn)
}

func (r *Runtime) launch(wg *sync.WaitGroup, parent *Thread, n int, spawn func(i int) Spawn) error {
	for i := 0; i < n; i++ {
		s := spawn(i)
		if err := r.admit(s.Pos); err != nil {
			return err
		}
		r.identify(s.Thread, parent.ID)
		wg.Add(1)
		go func() {
			growStack()
			defer wg.Done()
			defer r.retire(s.Thread, s.Pos)
			r.started(s.Thread)
			r.ended(s.Thread, s.Run())
		}()
	}
	return nil
}

// joined is what a joining construct returns once its threads are done.
func (r *Runtime) joined(refused error) error {
	if refused != nil {
		return refused
	}
	if r.Stopped() {
		return ErrStopped
	}
	return nil
}

// ParFor runs the n iterations of a parallel for on min(workers, n)
// goroutines that claim contiguous chunks from a shared cursor
// (internal/sched). Each goroutine calls worker once for an engine thread
// and the body that runs iteration i on it; every iteration then runs as
// a Tetra thread of its own (fresh id, start/end events, work record) on
// that reused engine thread. The thread budget is charged per goroutine. A
// worker stops at the next iteration once the run has stopped.
func (r *Runtime) ParFor(parent *Thread, n int, pos token.Pos, worker func() (*Thread, func(i int) error)) error {
	workers, loop := r.cfg.Sched.Loop(n)
	var wg sync.WaitGroup
	var refused error
	for w := 0; w < workers; w++ {
		if refused = r.admit(pos); refused != nil {
			break
		}
		wg.Add(1)
		go func() {
			growStack()
			defer wg.Done()
			t, body := worker()
			defer r.retire(t, pos)
			for {
				lo, hi, ok := loop.Next()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					if r.Stopped() {
						return
					}
					r.identify(t, parent.ID)
					r.started(t)
					r.ended(t, body(i))
				}
			}
		}()
	}
	wg.Wait()
	return r.joined(refused)
}

// spawnStack is how far a new thread's goroutine grows its stack before
// it enters an engine: about twice the VM's dispatch-loop frame (920 bytes
// on amd64), so that frame and its first callees fit. A goroutine that
// starts on the minimal 2 KB stack would otherwise overflow in the
// dispatch loop's prologue, and the runtime sizes a stack growth by
// walking the whole pc-sp table of the function that overflowed, which
// for the dispatch loop is long; growing once here, in a function whose
// table is a few entries long, is what makes the growth cheap. A larger
// pad would cost a growth of its own where the runtime already starts
// goroutines on larger stacks (it sizes them by their average use).
const spawnStack = 2 << 10

// growStack grows the calling goroutine's stack to hold spawnStack bytes.
//
//go:noinline
func growStack() {
	var pad [spawnStack]byte
	keep(pad[:])
}

// keep takes pad's address, so the compiler gives growStack its frame.
//
//go:noinline
func keep([]byte) {}

// Lock acquires the named lock idx for t, parking until it is free. A
// parked thread is woken by every release, by Cancel and by a governor
// trip, and returns ErrStopped or the trip's error positioned at pos.
// Waiting for a lock the thread already holds is an error, as is, unless
// NoDeadlockDetection, a wait that would close a cycle.
func (r *Runtime) Lock(t *Thread, idx int, pos token.Pos) error {
	if err := r.acquire(t, idx, pos); err != nil {
		return err
	}
	r.Emit(t, trace.LockAcquire, pos, r.lockNames[idx])
	return nil
}

func (r *Runtime) acquire(t *Thread, idx int, pos token.Pos) error {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	waited := false
	for owner := r.graph.Owner(idx); owner != -1; owner = r.graph.Owner(idx) {
		name := r.lockNames[idx]
		if owner == t.ID {
			return Errorf(pos, "deadlock: thread %d already holds lock %q and would wait for itself", t.ID, name)
		}
		if !waited {
			waited = true
			r.Emit(t, trace.LockWait, pos, name)
		}
		if err := r.mayWait(t, idx, pos); err != nil {
			r.graph.ClearWaiting(t.ID)
			return err
		}
		r.cond.Wait()
	}
	if waited {
		r.graph.ClearWaiting(t.ID)
	}
	r.graph.SetOwner(idx, t.ID)
	return nil
}

// mayWait records t's wait edge and decides whether parking is still
// worthwhile. Called with lockMu held.
func (r *Runtime) mayWait(t *Thread, idx int, pos token.Pos) error {
	r.graph.SetWaiting(t.ID, idx)
	if !r.cfg.NoDeadlockDetection {
		if c := r.graph.FindCycle(t.ID); c != nil {
			return Errorf(pos, "deadlock detected: %s", c)
		}
	}
	if r.Stopped() {
		return ErrStopped
	}
	if r.guard != nil {
		if k := r.guard.Tripped(); k != guard.OK {
			return r.guard.ErrAt(k, pos.String())
		}
	}
	return nil
}

// Unlock releases lock idx, which t holds.
func (r *Runtime) Unlock(t *Thread, idx int, pos token.Pos) {
	r.lockMu.Lock()
	r.graph.SetOwner(idx, -1)
	// Broadcast under lockMu: a waiter between its state check and parking
	// still holds lockMu, so it cannot miss a wakeup sent here.
	r.cond.Broadcast()
	r.lockMu.Unlock()
	r.Emit(t, trace.LockRelease, pos, r.lockNames[idx])
}

// wake rouses every parked waiter so it re-checks the stop and trip state.
func (r *Runtime) wake() {
	r.lockMu.Lock()
	r.cond.Broadcast()
	r.lockMu.Unlock()
}

// Errorf builds a runtime error positioned at pos.
func Errorf(pos token.Pos, format string, args ...any) error {
	return &value.RuntimeError{Msg: fmt.Sprintf(format, args...), Pos: pos.String()}
}
