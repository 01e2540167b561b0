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
// named-lock table, the background-thread registry, Tetra-formatted
// printing and console input. The semantics themselves — bounds rules,
// arithmetic error conditions, rune access, parsing, formatting — are NOT
// implemented here: a function here over a sem kernel exists to re-raise
// the kernel's error as a Tetra runtime panic, to adapt gort's array type,
// or to charge the allocation budget. gort owns only what is specific to
// compiled execution: goroutine plumbing, the governor's limits read from
// the environment, typed generic arrays, and I/O.
//
// Runtime errors (index out of bounds, division by zero, conversion
// failures) are raised as panics carrying an Err value; the generated main
// wraps execution in Catch, which prints them in the interpreter's
// "runtime error: ..." form and exits nonzero, so compiled and interpreted
// programs fail identically.
package gort

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/sem"
)

// Err is the panic payload for Tetra runtime errors.
type Err struct{ Msg string }

func (e Err) Error() string { return "runtime error: " + e.Msg }

// Raise aborts execution with a Tetra runtime error.
func Raise(format string, args ...any) {
	panic(Err{Msg: fmt.Sprintf(format, args...)})
}

// raiseSem re-raises a sem kernel error as a Tetra runtime panic; this is
// how the shared semantics core's canonical error wording reaches compiled
// programs.
func raiseSem(err error) {
	panic(Err{Msg: err.Error()})
}

// must is a sem kernel's result, or its error raised: must(sem.DivInt(a, b)).
func must[T any](v T, err error) T {
	if err != nil {
		raiseSem(err)
	}
	return v
}

// Catch runs a compiled program's main, converting Tetra runtime errors
// (and the Go runtime's arithmetic panics) into the interpreter's error
// format on stderr with exit status 1. Errors captured from parallel or
// background threads are re-raised after the join so a worker's runtime
// error aborts the program exactly like a main-thread one.
func Catch(main func()) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case Err:
				fmt.Fprintln(os.Stderr, e.Error())
			case error:
				fmt.Fprintln(os.Stderr, "runtime error:", e.Error())
			default:
				fmt.Fprintln(os.Stderr, "runtime error:", r)
			}
			Out.Flush()
			os.Exit(1)
		}
	}()
	main()
	WaitBG()
	Reraise()
	Out.Flush()
}

// ---- resource governor ----
//
// Compiled programs run under the same internal/guard.Governor as the
// interpreter and the VM. Limits cannot be baked in at compile time — the
// same binary may run trusted or sandboxed — so they arrive through the
// environment:
//
//	TETRA_TIMEOUT     wall-clock budget, Go duration syntax (e.g. "1s")
//	TETRA_MAX_STEPS   loop back-edge budget across all threads
//	TETRA_MAX_THREADS maximum concurrently-live threads
//	TETRA_MAX_OUTPUT  maximum bytes of program output
//	TETRA_MAX_ALLOC   maximum allocation cells (array elements and
//	                  string bytes on the growth paths)
//
// Generated code calls Tick at every loop back-edge and Enter on every
// function entry; Par/ParFor/Go charge thread spawns; the allocation
// paths (array literals and make-style construction, range
// materialization, push, string concatenation, and through Built every
// string or array a library call returns) charge cells. A tripped
// budget raises the governor's own diagnostic, the one the interpreter
// prints. A malformed value is ignored with a warning on stderr —
// never silently — because when tetrad's native tier runs these
// binaries, a misparsed knob is a serving bug, not a shell typo.

// MaxCallDepth mirrors rt.MaxCallDepth, the engines' recursion bound (the
// package's test holds the two equal), so runaway recursion in a compiled
// program is a Tetra runtime error instead of a raw Go stack fault.
const MaxCallDepth = 10000

// gov is the run's governor, nil when no limit is set: every charge below
// is then a single branch.
var gov *guard.Governor

// backstopGrace is how long past its deadline InitGuard's backstop lets a
// program live: strictly outside worker.NativeRunner's margin
// (guard.DefaultGrace), so under tetrad a parked artifact is always the
// runner's kill — a crash, retried on an engine that can name the deadlock
// — while a hand-run binary still exits on its own.
const backstopGrace = 2 * guard.DefaultGrace

// InitGuard reads the TETRA_* limit variables (guard.LimitsFromEnv);
// generated main calls it before execution starts.
func InitGuard() {
	lim, warnings := guard.LimitsFromEnv(os.Getenv)
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "gort: %s\n", w)
	}
	if d := lim.Deadline; d > 0 {
		// Hard backstop: a thread parked on a lock or stuck in another
		// uninterruptible operation never sees the governor trip.
		time.AfterFunc(d+backstopGrace, func() {
			fmt.Fprintf(os.Stderr, "runtime error: exceeded deadline (%s)\n", d)
			Out.Flush()
			os.Exit(1)
		})
	}
	gov = nil
	if lim.Enabled() {
		gov = guard.New(lim)
		gov.Start()
		gov.ThreadStart() // the main thread counts against the thread budget
	}
}

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

// charge raises the governor's diagnostic when a charge tripped a limit
// (or found one already tripped: the first limit to trip wins). The raise
// is a function of its own so that the test inlines into Tick.
func charge(k guard.Kind) {
	if k != guard.OK {
		raiseTrip(k)
	}
}

func raiseTrip(k guard.Kind) { panic(Err{Msg: gov.Err(k).Error()}) }

// chargeAlloc bills n cells (array elements or string bytes) against the
// allocation budget.
func chargeAlloc(n int64) {
	if gov != nil {
		charge(gov.AddAlloc(n))
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
	if gov != nil {
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
	if gd > MaxCallDepth {
		Raise("call stack exhausted (recursion deeper than %d)", MaxCallDepth)
	}
}

// Tick charges one step at a loop back-edge, raising when the step budget
// or the deadline has tripped.
func Tick() {
	if gov != nil {
		charge(gov.StepN(nil, 1))
	}
}

// threadStart charges one live thread against the thread budget; only an
// OK is to be balanced by threadExit.
func threadStart() guard.Kind {
	if gov == nil {
		return guard.OK
	}
	return gov.ThreadStart()
}

// spawnCheck is threadStart for the spawns that raise a refusal at once.
func spawnCheck() { charge(threadStart()) }

// captured holds the first panic recovered from a spawned thread.
var (
	capMu    sync.Mutex
	captured any
)

// threadExit balances spawnCheck and records a spawned thread's panic for
// Reraise instead of letting it kill the process with a Go trace.
func threadExit() {
	if gov != nil {
		gov.ThreadDone()
	}
	if r := recover(); r != nil {
		capMu.Lock()
		if captured == nil {
			captured = r
		}
		capMu.Unlock()
	}
}

// Par launches one parallel-block arm.
func Par(wg *sync.WaitGroup, f func()) {
	spawnCheck()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer threadExit()
		f()
	}()
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

// ParFor runs body over every element of elems on a bounded pool of
// min(workers, len(elems)) goroutines that claim contiguous chunks via an
// atomic cursor — the compiled runtime's side of internal/sched. Each
// iteration still receives its private induction value (the closure
// parameter) and charges one Tick; the thread budget is charged per
// worker. Panics from iteration bodies are captured per worker; the
// generated code calls Reraise after the join.
func ParFor[T any](elems []T, body func(T)) {
	workers, loop := schedConfig.Loop(len(elems))
	var wg sync.WaitGroup
	refused := guard.OK
	for w := 0; w < workers; w++ {
		// A refusal is raised only after the workers already running have
		// been joined.
		if refused = threadStart(); refused != guard.OK {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer threadExit()
			for {
				lo, hi, ok := loop.Next()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					Tick()
					body(elems[i])
				}
			}
		}()
	}
	wg.Wait()
	charge(refused)
}

// Reraise re-panics with the first error captured from a spawned thread;
// generated code calls it after joining a parallel block, and Catch calls
// it after the background join.
func Reraise() {
	capMu.Lock()
	r := captured
	captured = nil
	capMu.Unlock()
	if r != nil {
		panic(r)
	}
}

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
// the end, Python-style (-1 is the last element); the rule and the error
// wording come from the shared semantics core.
func (a *Array[T]) Get(i int64) T {
	j := sem.NormIndex(i, int64(len(a.E)))
	if j < 0 || j >= int64(len(a.E)) {
		raiseSem(sem.ErrArrayIndex(i, len(a.E)))
	}
	return a.E[j]
}

// Set stores element i with bounds checking and negative-index support.
func (a *Array[T]) Set(i int64, v T) {
	j := sem.NormIndex(i, int64(len(a.E)))
	if j < 0 || j >= int64(len(a.E)) {
		raiseSem(sem.ErrArrayIndex(i, len(a.E)))
	}
	a.E[j] = v
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
func DivInt(a, b int64) int64 { return must(sem.DivInt(a, b)) }

// ModInt is Tetra integer modulo with the modulo-by-zero runtime error.
func ModInt(a, b int64) int64 { return must(sem.ModInt(a, b)) }

// DivReal is Tetra real division; like DivInt it raises on a zero divisor
// so every backend reports the same runtime error instead of producing inf.
func DivReal(a, b float64) float64 { return must(sem.DivReal(a, b)) }

// ModReal is Tetra real modulo with the modulo-by-zero runtime error.
func ModReal(a, b float64) float64 { return must(sem.ModReal(a, b)) }

// Eq is Tetra's == on any pair of same-typed values; arrays compare deeply.
func Eq(a, b any) bool { return reflect.DeepEqual(a, b) }

// locks is the named-lock table; gogen sizes it per program via InitLocks.
var locks []*sync.Mutex

// InitLocks sizes the lock table; called once from generated main.
func InitLocks(n int) {
	locks = make([]*sync.Mutex, n)
	for i := range locks {
		locks[i] = new(sync.Mutex)
	}
}

// Lock acquires named lock i.
func Lock(i int) { locks[i].Lock() }

// Unlock releases named lock i.
func Unlock(i int) { locks[i].Unlock() }

// bg tracks background threads so the process can join them at exit, the
// same policy as the interpreter's Run.
var bg sync.WaitGroup

// Go launches a background-block statement thread.
func Go(f func()) {
	spawnCheck()
	bg.Add(1)
	go func() {
		defer bg.Done()
		defer threadExit()
		f()
	}()
}

// WaitBG joins all background threads.
func WaitBG() { bg.Wait() }

// Out is the buffered, mutex-guarded stdout writer; prints are atomic per
// call like the interpreter's.
var Out = newOut()

type outWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func newOut() *outWriter { return &outWriter{w: bufio.NewWriter(os.Stdout)} }

func (o *outWriter) Flush() {
	o.mu.Lock()
	o.w.Flush()
	o.mu.Unlock()
}

// Print renders the arguments in Tetra's print format plus a newline. The
// write is charged against the output budget first; a write that would
// cross the budget is suppressed so the budget is a hard cap.
func Print(args ...any) {
	var sb strings.Builder
	for _, a := range args {
		sb.WriteString(formatTop(a))
	}
	sb.WriteByte('\n')
	if gov != nil {
		charge(gov.AddOutput(sb.Len()))
	}
	Out.mu.Lock()
	Out.w.WriteString(sb.String())
	Out.mu.Unlock()
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

// in is the shared buffered stdin reader for the read_* builtins.
var in = bufio.NewReader(os.Stdin)

// ReadInt implements read_int.
func ReadInt() int64 {
	var v int64
	if _, err := fmt.Fscan(in, &v); err != nil {
		Raise("read_int: %v", err)
	}
	return v
}

// ReadReal implements read_real.
func ReadReal() float64 {
	var v float64
	if _, err := fmt.Fscan(in, &v); err != nil {
		Raise("read_real: %v", err)
	}
	return v
}

// ReadBool implements read_bool.
func ReadBool() bool {
	var s string
	if _, err := fmt.Fscan(in, &s); err != nil {
		Raise("read_bool: %v", err)
	}
	v, ok := sem.ParseBool(s)
	if !ok {
		raiseSem(sem.ErrReadBool(s))
	}
	return v
}

// ReadString implements read_string with the same leftover-newline
// absorption as the interpreter's stdlib.
func ReadString() string {
	line, err := in.ReadString('\n')
	if strings.TrimRight(line, "\r\n") == "" && err == nil {
		line, err = in.ReadString('\n')
	}
	if err != nil && line == "" {
		Raise("read_string: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

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

// Sleep implements sleep(ms). Under a deadline the sleep runs in short
// slices so a tripped budget interrupts it instead of outliving the run.
func Sleep(ms int64) {
	if ms <= 0 {
		return
	}
	d := time.Duration(ms) * time.Millisecond
	if gov == nil || gov.Limits().Deadline == 0 {
		time.Sleep(d)
		return
	}
	end := time.Now().Add(d)
	const slice = 10 * time.Millisecond
	for {
		charge(gov.Tripped())
		remain := time.Until(end)
		if remain <= 0 {
			return
		}
		if remain > slice {
			remain = slice
		}
		time.Sleep(remain)
	}
}

// TimeMS implements time_ms.
func TimeMS() int64 { return time.Now().UnixMilli() }
