// Package gort is the runtime support library for natively compiled Tetra
// programs (internal/gogen).
//
// The paper's future work (§VI) proposes "a native code compiler, which
// will compile Tetra code into an efficient executable, possibly by
// targeting C with Pthreads as the output language". This reproduction
// targets Go with goroutines instead — the exact analog on this stack.
// Generated programs import this package and, for the kernels that cannot
// fail, internal/sem directly (a builtin's stdlib row names which). gort
// supplies Tetra's arrays (reference semantics + bounds checking), the
// cells that hold a parallel function's locals, Tetra-formatted printing
// and console input. The semantics themselves — bounds rules, arithmetic
// error conditions, rune access, parsing, formatting — are NOT implemented
// here: a function here over a sem kernel exists to re-raise the kernel's
// error as a Tetra runtime panic, to adapt gort's array type, or to charge
// the allocation budget. The one exception is speed: the loop kernels
// (DivInt, ModInt, DivReal, Array's Get and Set) test a zero divisor or an
// index in [0, len) inline, so Go inlines them into generated loops, and
// take sem's rule and error values out of line for every other case. Nor
// is the thread model: gort is the third client
// of internal/rt, beside the interpreter and the VM. Every generated
// function takes its Tetra thread (an rt.Thread), and parallel, background,
// parallel for and lock go through the run's rt.Runtime, so a compiled
// program's threads, locks, deadlock diagnosis and budgets are the
// engines'.
//
// Runtime errors (index out of bounds, division by zero, conversion
// failures) are raised as panics carrying an Err value; an rt error
// (a positioned deadlock or thread-budget refusal, or rt.ErrStopped once
// another thread has failed) is raised as it is. recovered turns either
// into the error an rt body returns, so the run's error is rt.Main's and
// Main reports it in the interpreter's "runtime error: ..." form.
//
// Main runs the program once, as the paper's workflow does, or — under
// tetrad's native tier — many times in one resident process, one run per
// request of the wire protocol. A run's state (its governor, its
// stdlib.Env for output and input, its lock table and its background join)
// is one rt.Runtime, and active points at the one in progress.
package gort

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/wire"
)

// Thread is a Tetra thread: every generated function takes the one it runs
// on.
type Thread = rt.Thread

// Err is the panic payload for Tetra runtime errors.
type Err struct{ Msg string }

func (e Err) Error() string { return "runtime error: " + e.Msg }

// Raise aborts execution with a Tetra runtime error.
func Raise(format string, args ...any) {
	panic(Err{Msg: fmt.Sprintf(format, args...)})
}

// raiseSem re-raises a sem kernel error, or an unpositioned one from the
// run's stdlib.Env or governor, as a Tetra runtime panic; this is how the
// shared semantics core's canonical error wording reaches compiled
// programs. It stays out of line, so a kernel that calls it on its error
// path still fits Go's inlining budget.
//
//go:noinline
func raiseSem(err error) {
	panic(Err{Msg: err.Error()})
}

// must is a sem kernel's result, or its error raised: must(sem.ModReal(a, b)).
func must[T any](v T, err error) T {
	if err != nil {
		raiseSem(err)
	}
	return v
}

// check raises an error rt returned as it is: a positioned runtime error,
// or rt.ErrStopped when another thread has already failed.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// recovered is the one adapter from gort's panics to the error an rt body
// returns; every body defers it. A Go runtime fault is reported as a Tetra
// runtime error rather than a crash.
func recovered(err *error) {
	switch r := recover().(type) {
	case nil:
	case runtime.Error:
		*err = Err{Msg: r.Error()}
	case error:
		*err = r
	default:
		*err = Err{Msg: fmt.Sprint(r)}
	}
}

// active is the run in progress. A resident artifact serves one request at
// a time, so one pointer is enough. Before Main starts a run it is an
// ungoverned one on the process's stdio.
var active = rt.New(rt.Config{}, nil)

// file is the program's source file name, which positions carry.
var file string

// at is the source position line:col of the program.
func at(line, col int) token.Pos { return token.Pos{File: file, Line: line, Col: col} }

// Main is a compiled program's entry point: src is its source file name,
// lockNames its named locks (a lock's index is its id), main its Tetra
// main. With wire.EnvWorker set it serves runs over the wire protocol on
// stdio until stdin closes (see serve). Otherwise it runs main once under
// the budgets guard.LimitsFromEnv reads, and a runtime error is printed on
// stderr in the interpreter's format with exit status 1.
func Main(src string, lockNames []string, main func(*Thread)) {
	file = src
	if os.Getenv(wire.EnvWorker) == "1" {
		os.Exit(serve(lockNames, main, os.Stdin, os.Stdout))
	}
	lim, warnings := guard.LimitsFromEnv(os.Getenv)
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "gort: %s\n", w)
	}
	out := bufio.NewWriter(os.Stdout)
	r := rt.New(rt.Config{Stdin: os.Stdin, Stdout: out, Limits: lim, Sched: schedConfig}, lockNames)
	err := run(r, main)
	r.Env().HoldOutput(func() { out.Flush() })
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// idleGCPercent is the GC percent a resident artifact holds between runs.
const idleGCPercent = 10

// serve is the resident loop: one wire.Request per line on in, one run of
// main under its Limits and Stdin, one wire.Response per line on out with
// the run's output, its runtime error and its own run time. A clean run
// has joined every thread it started, so the next one starts on a fresh
// runtime. Any other run may leave a thread live past the background
// join's grace: serve replies and stops, and the supervisor retires the
// process. It returns the exit code: 0 on a closed stdin or after a failed
// run, 1 on a protocol error.
func serve(lockNames []string, main func(*Thread), in io.Reader, out io.Writer) int {
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	var stdout bytes.Buffer
	// A run gets the process's own GC pacing, as a hand-run binary does.
	// Between runs the loop's garbage (decoded requests, encoded replies)
	// is collected at idleGCPercent, so it never grows the heap to the
	// runtime's 4 MiB minimum goal: a resident artifact stays near its
	// start size (≈4 MiB RSS after 30 000 runs, against ≈7.4 MiB at the
	// default percent).
	runGC := debug.SetGCPercent(idleGCPercent)
	defer debug.SetGCPercent(runGC)
	for {
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintf(os.Stderr, "gort: protocol read: %v\n", err)
			return 1
		}
		stdout.Reset()
		r := rt.New(rt.Config{Stdin: strings.NewReader(req.Stdin), Stdout: &stdout, Limits: req.Limits, Sched: schedConfig}, lockNames)
		debug.SetGCPercent(runGC)
		start := time.Now()
		runErr := run(r, main)
		resp := wire.Response{Seq: req.Seq, RunMicros: time.Since(start).Microseconds()}
		debug.SetGCPercent(idleGCPercent)
		// A failed run's threads may still print: read the output under
		// the lock prints take.
		r.Env().HoldOutput(func() { resp.Stdout = stdout.String() })
		if runErr != nil {
			resp.ErrStage, resp.ErrMessage = "runtime", runErr.Error()
		} else {
			resp.OK = true
		}
		if err := enc.Encode(&resp); err != nil {
			fmt.Fprintf(os.Stderr, "gort: protocol write: %v\n", err)
			return 1
		}
		if runErr != nil {
			return 0
		}
	}
}

// run makes r the active run and runs main as its main thread; rt.Main
// joins the background threads and returns the first error any thread
// raised.
func run(r *rt.Runtime, main func(*Thread)) error {
	active = r
	t := new(Thread)
	return r.Main(t, func() (err error) {
		defer recovered(&err)
		main(t)
		return nil
	})
}

// ---- resource governor ----
//
// Compiled programs run under the same internal/guard.Governor as the
// interpreter and the VM, the active run's. Limits cannot be baked in at
// compile time — the same binary may run trusted or sandboxed — so they
// arrive at run time: in each request's Limits for a resident artifact,
// and for a hand-run binary through the environment variables
// guard.LimitsFromEnv reads (a wall-clock budget and the step, thread,
// output and allocation budgets).
//
// Generated code calls Tick at every loop back-edge and Enter on every
// function entry; rt charges thread spawns; the allocation paths (array
// literals and make-style construction, range materialization, push,
// string concatenation, and through Built every string or array a library
// call returns) charge cells. A tripped budget raises the governor's own
// diagnostic, the one the interpreter prints. A malformed environment
// value is ignored with a warning on stderr — never silently: whoever set
// it believes a budget is in force.

// envInt64 parses a non-negative integer scheduling knob, warning like
// guard.LimitsFromEnv about a malformed or negative value.
func envInt64(name string) int64 {
	v := os.Getenv(name)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		fmt.Fprintf(os.Stderr, "gort: ignoring %s=%q: want a non-negative integer\n", name, v)
		return 0
	}
	return n
}

// chargeAlloc bills n cells (array elements or string bytes) against the
// allocation budget.
func chargeAlloc(n int64) {
	if g := active.Guard(); g != nil {
		if k := g.AddAlloc(n); k != guard.OK {
			raiseSem(g.Err(k))
		}
	}
}

// Dyn returns v as a value rather than a constant. Generated code passes
// one literal operand of an operator through it, so that Go does not
// evaluate the operation at compile time, where an overflow is an error,
// instead of at run time, where it wraps as on the engines. It inlines to
// nothing.
func Dyn[T int64 | float64](v T) T { return v }

// Built charges what a library call built — a string's bytes, an array's
// elements — and passes it on: gogen wraps the native call of every stdlib
// row marked Built in it, so the three backends charge the same calls.
func Built[T any](v T) T {
	if active.Guard() != nil {
		switch b := any(v).(type) {
		case string:
			chargeAlloc(int64(len(b)))
		case interface{ Len() int64 }:
			chargeAlloc(b.Len())
		}
	}
	return v
}

// Enter bounds recursion; generated functions call it on entry with their
// call depth (1 = main).
func Enter(gd int) {
	if gd > rt.MaxCallDepth {
		Raise("call stack exhausted (recursion deeper than %d)", rt.MaxCallDepth)
	}
}

// Tick charges t one step at the back-edge of the loop at line:col, as the
// engines charge a statement: a field increment, and once per
// guard.StepBatch steps a flush to the governor, which also stops the
// thread once another one has failed.
func Tick(t *Thread, line, col int) {
	t.Pending++
	if t.Pending >= guard.StepBatch {
		flush(t, line, col)
	}
}

func flush(t *Thread, line, col int) {
	if active.Stopped() {
		panic(rt.ErrStopped)
	}
	if active.Guard() == nil {
		t.Pending = 0
		return
	}
	check(active.Flush(t, at(line, col)))
}

// ---- threads and locks: the active run's rt.Runtime ----

// Parallel runs each arm of the parallel block at line:col as a thread of
// its own and joins them all.
func Parallel(t *Thread, line, col int, arms ...func(*Thread)) {
	check(active.Parallel(t, len(arms), spawns(at(line, col), arms)))
}

// Background starts each arm of the background block at line:col as a
// detached thread; the run joins them before it ends.
func Background(t *Thread, line, col int, arms ...func(*Thread)) {
	check(active.Background(t, len(arms), spawns(at(line, col), arms)))
}

func spawns(pos token.Pos, arms []func(*Thread)) func(i int) rt.Spawn {
	return func(i int) rt.Spawn {
		th, arm := new(Thread), arms[i]
		return rt.Spawn{Pos: pos, Thread: th, Run: func() (err error) {
			defer recovered(&err)
			arm(th)
			return nil
		}}
	}
}

// schedConfig is the parallel-for scheduling configuration. Like the
// governor limits, it cannot be baked in at compile time, so it arrives
// through the environment: TETRA_WORKERS caps the worker-goroutine count
// per loop (default GOMAXPROCS) and TETRA_GRAIN overrides the chunk size
// (default max(1, n/(workers*8))).
var schedConfig = sched.Config{
	Workers: int(envInt64("TETRA_WORKERS")),
	Grain:   int(envInt64("TETRA_GRAIN")),
}

// ParFor runs the parallel for at line:col over every element of elems
// through rt's chunked worker pool: each iteration is a Tetra thread of its
// own, receives its private induction value (body's parameter) and is
// charged one step.
func ParFor[T any](t *Thread, line, col int, elems []T, body func(*Thread, T)) {
	check(active.ParFor(t, len(elems), at(line, col), func() (*rt.Thread, func(i int) error) {
		th := new(Thread)
		return th, func(i int) (err error) {
			defer recovered(&err)
			Tick(th, line, col)
			body(th, elems[i])
			return nil
		}
	}))
}

// Lock acquires named lock idx for t at the lock statement at line:col,
// parking until it is free; a wait that would close a cycle, or one the
// run's failure or a tripped budget ends, raises instead.
func Lock(t *Thread, idx, line, col int) { check(active.Lock(t, idx, at(line, col))) }

// Unlock releases named lock idx, which t holds.
func Unlock(t *Thread, idx int) { active.Unlock(t, idx, token.Pos{}) }

// Cell holds a shared variable of a function that has a parallel
// construct, as the engines' cells do: one atomic word, a pointer to a
// value that is never written again, so an unlocked update may be lost but
// never torn. The zero Cell holds T's zero value.
type Cell[T any] struct{ p atomic.Pointer[T] }

// Load returns the cell's value.
func (c *Cell[T]) Load() T {
	if p := c.p.Load(); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Store sets the cell's value.
func (c *Cell[T]) Store(v T) { c.p.Store(&v) }

// Array is a Tetra array: reference semantics, like the interpreter's.
type Array[T any] struct{ E []T }

// NewArray wraps the given elements (array literals), charging them
// against the allocation budget like the interpreter does.
func NewArray[T any](elems ...T) *Array[T] {
	chargeAlloc(int64(len(elems)))
	return &Array[T]{E: elems}
}

// MakeArray allocates n zero elements.
func MakeArray[T any](n int64) *Array[T] {
	chargeAlloc(n)
	return &Array[T]{E: make([]T, n)}
}

// Len returns the element count as a Tetra int.
func (a *Array[T]) Len() int64 { return int64(len(a.E)) }

// Get returns element i with bounds checking. Negative indices count from
// the end, Python-style (-1 is the last element). An index in [0, len) is
// one unsigned compare, inlined into generated code; any other takes the
// out-of-line path through index.
func (a *Array[T]) Get(i int64) T {
	if uint64(i) < uint64(len(a.E)) {
		return a.E[i]
	}
	return a.E[index(i, len(a.E))]
}

// Set stores element i with bounds checking and negative-index support,
// inlined like Get.
func (a *Array[T]) Set(i int64, v T) {
	if uint64(i) < uint64(len(a.E)) {
		a.E[i] = v
	} else {
		a.set(i, v)
	}
}

// set is Set's path for an index outside [0, len), out of line so that Set
// fits Go's inlining budget.
//
//go:noinline
func (a *Array[T]) set(i int64, v T) { a.E[index(i, len(a.E))] = v }

// index is the element a negative index i counts to from the end of an
// array of length n, or i's out-of-range error when there is none. The rule
// and the error wording come from the shared semantics core.
//
//go:noinline
func index(i int64, n int) int64 {
	j := sem.NormIndex(i, int64(n))
	if j < 0 || j >= int64(n) {
		raiseSem(sem.ErrArrayIndex(i, n))
	}
	return j
}

// Push appends an element (the future-work growable-array operation).
func (a *Array[T]) Push(v T) {
	chargeAlloc(1)
	a.E = append(a.E, v)
}

// String renders the array in Tetra's print format.
func (a *Array[T]) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, e := range a.E {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(formatElem(e))
	}
	sb.WriteByte(']')
	return sb.String()
}

// Range returns the inclusive Tetra range [lo .. hi].
func Range(lo, hi int64) *Array[int64] {
	n := must(sem.RangeLen(lo, hi))
	chargeAlloc(n)
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return &Array[int64]{E: out}
}

// RangeN implements the range builtin: range(n) = [0, n), range(lo, hi) =
// [lo, hi). Its too-large error is worded differently from the range
// literal's (it reports an element count); both wordings live in sem.
func RangeN(args ...int64) *Array[int64] {
	lo, hi := int64(0), int64(0)
	if len(args) == 1 {
		hi = args[0]
	} else {
		lo, hi = args[0], args[1]
	}
	n := must(sem.RangeNLen(lo, hi))
	chargeAlloc(n)
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return &Array[int64]{E: out}
}

// Concat is Tetra string concatenation, charging the built bytes
// against the allocation budget the way the interpreter and VM do, so a
// string-doubling loop trips the same "exceeded allocation budget"
// error natively instead of eating the host's memory.
func Concat(a, b string) string {
	s := a + b
	chargeAlloc(int64(len(s)))
	return s
}

// StrLen returns the number of Unicode characters in s — Tetra's len on
// strings counts code points, not bytes.
func StrLen(s string) int64 { return int64(sem.RuneLen(s)) }

// StrIndex returns the 1-character string s[i] with bounds checking. The
// index counts Unicode characters; negative indices count from the end.
func StrIndex(s string, i int64) string { return must(sem.StringIndex(s, i)) }

// DivInt is Tetra integer division with the divide-by-zero runtime error.
// The zero check inlines into generated code, so a constant divisor
// compiles to Go's multiply-shift; the raise is out of line. sem.DivInt is
// the same rule for the engines.
func DivInt(a, b int64) int64 {
	if b == 0 {
		raiseSem(sem.ErrDivisionByZero)
	}
	return a / b
}

// ModInt is Tetra integer modulo with the modulo-by-zero runtime error,
// inlined like DivInt.
func ModInt(a, b int64) int64 {
	if b == 0 {
		raiseSem(sem.ErrModuloByZero)
	}
	return a % b
}

// DivReal is Tetra real division; like DivInt it raises on a zero divisor
// so every backend reports the same runtime error instead of producing inf.
func DivReal(a, b float64) float64 {
	if b == 0 {
		raiseSem(sem.ErrDivisionByZero)
	}
	return a / b
}

// ModReal is Tetra real modulo with the modulo-by-zero runtime error.
func ModReal(a, b float64) float64 { return must(sem.ModReal(a, b)) }

// Eq is Tetra's == on any pair of same-typed values; arrays compare deeply.
func Eq(a, b any) bool { return reflect.DeepEqual(a, b) }

// Print renders the arguments in Tetra's print format plus a newline. The
// write is charged against the output budget first; a write that would
// cross the budget is suppressed so the budget is a hard cap.
func Print(args ...any) {
	var sb strings.Builder
	for _, a := range args {
		sb.WriteString(formatTop(a))
	}
	sb.WriteByte('\n')
	if err := active.Env().WriteString(sb.String()); err != nil {
		raiseSem(err)
	}
}

// formatTop formats a value the way Tetra's print does at top level.
func formatTop(a any) string {
	switch v := a.(type) {
	case int64:
		return sem.FormatInt(v)
	case float64:
		return sem.FormatReal(v)
	case string:
		return v
	case bool:
		return sem.FormatBool(v)
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprint(a)
	}
}

// formatElem formats a value inside an array (strings are quoted).
func formatElem(a any) string {
	if s, ok := a.(string); ok {
		return sem.QuoteString(s)
	}
	return formatTop(a)
}

// FormatReal matches the interpreter's real formatting (trailing .0 on
// integral values).
func FormatReal(f float64) string { return sem.FormatReal(f) }

// ReadInt, ReadReal, ReadBool and ReadString implement the input
// builtins with the interpreter's readers (stdlib.Env).
func ReadInt() int64 { return must(active.Env().ReadInt()) }

func ReadReal() float64 { return must(active.Env().ReadReal()) }

func ReadBool() bool { return must(active.Env().ReadBool()) }

func ReadString() string { return must(active.Env().ReadString()) }

// The builtins' native forms that are more than a sem kernel: the stdlib
// row's Native, or the form gogen picks for a generic builtin.

// Floor implements floor (→ int).
func Floor(v float64) int64 { return must(sem.Floor(v)) }

// Ceil implements ceil (→ int).
func Ceil(v float64) int64 { return must(sem.Ceil(v)) }

// ToStringOf implements to_string for any Tetra value.
func ToStringOf(a any) string { return formatTop(a) }

// ToIntFromReal implements to_int on reals.
func ToIntFromReal(f float64) int64 { return must(sem.TruncReal(f)) }

// ToIntFromString implements to_int on strings.
func ToIntFromString(s string) int64 { return must(sem.ParseInt(s)) }

// ToRealFromString implements to_real on strings.
func ToRealFromString(s string) float64 { return must(sem.ParseReal(s)) }

// Substring implements substring with the canonical bounds errors.
func Substring(s string, lo, hi int64) string { return must(sem.Substring(s, lo, hi)) }

// Split implements split (empty separator → whitespace fields).
func Split(s, sep string) *Array[string] {
	return &Array[string]{E: sem.Split(s, sep)}
}

// Join implements join.
func Join(a *Array[string], sep string) string { return sem.Join(a.E, sep) }

// Repeat implements repeat with the count and size guards. Like RangeN it
// knows what it builds before building it, and charges it first.
func Repeat(s string, n int64) string {
	chargeAlloc(must(sem.RepeatLen(s, n)))
	return must(sem.Repeat(s, n))
}

// SortArray implements sort: a sorted copy.
func SortArray[T int64 | float64 | string](a *Array[T]) *Array[T] {
	out := make([]T, len(a.E))
	copy(out, a.E)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &Array[T]{E: out}
}

// Sleep implements sleep(ms), interrupted by a tripped budget.
func Sleep(ms int64) {
	if err := active.Env().Sleep(ms); err != nil {
		raiseSem(err)
	}
}

// TimeMS implements time_ms.
func TimeMS() int64 { return time.Now().UnixMilli() }
