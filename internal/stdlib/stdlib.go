// Package stdlib implements Tetra's built-in function library.
//
// The paper's standard library is "extremely spartan ... basic I/O functions
// and functions for finding the lengths of strings and arrays" (§VI), with a
// richer math/string library listed as future work. This package implements
// both: the core builtins (print, read_*, len) and the future-work library
// (math, string handling, conversions, sort), so the reproduction covers the
// planned system as well as the published one.
//
// A builtin is one row of the table below, and the row is everything the
// rest of the system knows about it: the signature internal/check and
// bytecode.Verify type a call with (Signature), the parameter types the
// three backends widen arguments to, the implementation the interpreter
// and the VM share (Eval), the Go function compiled code calls (Native),
// and whether its result is charged against the allocation budget (Built).
// The implementations here are dispatch and I/O only: the computational
// kernels — parsing, bounds rules, string operations, error wording —
// live in internal/sem, the semantics core compiled programs call too, so
// all three backends evaluate identically.
package stdlib

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Builtin ids, used for fast dispatch. The order is frozen: bytecode embeds
// these ids.
const (
	Print = iota
	ReadInt
	ReadReal
	ReadString
	ReadBool
	Len
	Range
	Sqrt
	Sin
	Cos
	Tan
	Exp
	Log
	Abs
	Pow
	Floor
	Ceil
	Min
	Max
	ToString
	ToInt
	ToReal
	Substring
	ToUpper
	ToLower
	Find
	Split
	Join
	StartsWith
	EndsWith
	Trim
	Repeat
	Contains
	Reverse
	Sort
	Push
	Sleep
	TimeMS
	NumBuiltins // how many there are: the bound on a bytecode builtin id
)

// Env is the runtime context builtins execute in: program I/O streams. Out
// is guarded by a mutex because parallel Tetra threads may print
// concurrently; each print call is atomic with respect to other prints,
// matching what students observe from the C++ interpreter's cout usage at
// line granularity.
type Env struct {
	In  *bufio.Reader
	Out io.Writer

	outMu sync.Mutex
	guard *guard.Governor
}

// NewEnv returns an Env reading from in and writing to out.
func NewEnv(in io.Reader, out io.Writer) *Env {
	return &Env{In: bufio.NewReader(in), Out: out}
}

// SetGuard attaches a resource governor; print output, built data and
// sleeps are then charged against (and interrupted by) its budgets.
func (e *Env) SetGuard(g *guard.Governor) { e.guard = g }

// alloc charges n cells — array elements or string bytes a builtin builds —
// against the governor's allocation budget.
func (e *Env) alloc(n int64) error {
	if g := e.guard; g != nil {
		if k := g.AddAlloc(n); k != guard.OK {
			return g.Err(k)
		}
	}
	return nil
}

// Printf writes formatted output, serialized against other prints.
func (e *Env) Printf(format string, args ...any) {
	e.WriteString(fmt.Sprintf(format, args...)) //nolint:errcheck // diagnostic output
}

// WriteString writes raw output, serialized against other prints. The write
// is charged against the governor's output budget first; a write that would
// cross the budget is suppressed entirely so the budget is a hard cap.
func (e *Env) WriteString(s string) error {
	if g := e.guard; g != nil {
		if k := g.AddOutput(len(s)); k != guard.OK {
			return g.Err(k)
		}
	}
	e.outMu.Lock()
	defer e.outMu.Unlock()
	io.WriteString(e.Out, s)
	return nil
}

// HoldOutput calls f while no print can write to Out, so that f may flush
// or read the writer under Out while a thread of a failed run still prints.
func (e *Env) HoldOutput(f func()) {
	e.outMu.Lock()
	defer e.outMu.Unlock()
	f()
}

// Sleep pauses for ms milliseconds. With a governor attached it sleeps in
// short slices, so that a tripped limit (deadline, cancel) interrupts the
// sleep instead of outliving the run. A nil Env sleeps ungoverned.
func (e *Env) Sleep(ms int64) error {
	if ms <= 0 {
		return nil
	}
	d := time.Duration(ms) * time.Millisecond
	if e == nil || e.guard == nil {
		time.Sleep(d)
		return nil
	}
	g := e.guard
	const slice = 10 * time.Millisecond
	deadline := time.Now().Add(d)
	for {
		if k := g.Tripped(); k != guard.OK {
			return g.Err(k)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		time.Sleep(min(remain, slice))
	}
}

// ReadInt, ReadReal, ReadBool and ReadString are the input builtins'
// readers, which their rows and a compiled program (internal/gort) share.
//
// ReadInt implements read_int: the next whitespace-separated token of In.
func (e *Env) ReadInt() (int64, error) {
	var v int64
	if _, err := fmt.Fscan(e.In, &v); err != nil {
		return 0, fmt.Errorf("read_int: %v", err)
	}
	return v, nil
}

// ReadReal implements read_real, as ReadInt.
func (e *Env) ReadReal() (float64, error) {
	var v float64
	if _, err := fmt.Fscan(e.In, &v); err != nil {
		return 0, fmt.Errorf("read_real: %v", err)
	}
	return v, nil
}

// ReadBool implements read_bool, as ReadInt, with sem's spellings.
func (e *Env) ReadBool() (bool, error) {
	var s string
	if _, err := fmt.Fscan(e.In, &s); err != nil {
		return false, fmt.Errorf("read_bool: %v", err)
	}
	if v, ok := sem.ParseBool(s); ok {
		return v, nil
	}
	return false, sem.ErrReadBool(s)
}

// ReadString implements read_string: the next input line. When a
// preceding read_int / read_real / read_bool left only a newline on the
// current line, that empty remainder is skipped — the classic
// scanf-then-getline trap beginners hit, absorbed by the library instead
// of taught the hard way.
func (e *Env) ReadString() (string, error) {
	line, err := e.In.ReadString('\n')
	if strings.TrimRight(line, "\r\n") == "" && err == nil {
		line, err = e.In.ReadString('\n')
	}
	if err != nil && line == "" {
		return "", fmt.Errorf("read_string: %v", err)
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// read is the Eval of an input builtin: reader r's value, made a Value.
func read[T any](r func(*Env) (T, error), wrap func(T) value.Value) EvalFunc {
	return func(env *Env, _ []value.Value) (value.Value, error) {
		v, err := r(env)
		if err != nil {
			return value.Value{}, err
		}
		return wrap(v), nil
	}
}

// CheckFunc validates argument types and returns the result type (nil for
// void). It reports errors as plain messages; the checker attaches
// positions.
type CheckFunc func(args []*types.Type) (*types.Type, error)

// EvalFunc executes the builtin. Arguments arrive converted to the row's
// parameter types, as a user function's do.
type EvalFunc func(env *Env, args []value.Value) (value.Value, error)

// Builtin describes one library function. A fixed signature is Params and
// Result (nil for void); only a variadic or generic builtin has a Check
// instead, and compiled code then gets its native form from gogen.
type Builtin struct {
	ID     int
	Name   string
	Params []*types.Type
	Result *types.Type
	Check  CheckFunc
	Eval   EvalFunc
	// Native is the Go function compiled code calls with the arguments
	// converted to Params: a sem kernel, or the gort wrapper that raises its
	// error or adapts its types.
	Native string
	// Built marks a result that is new data about the size of the arguments:
	// its bytes or elements are charged once the kernel returns, by the
	// wrapper register puts around Eval and by gort.Built in compiled code.
	// range and repeat size their result from integers, so they charge it
	// themselves, before it exists.
	Built bool
}

// Signature types a call with the given argument types: the result type
// (nil for void) or the error the checker positions. An int argument meets
// a real parameter as for a user function.
func (b *Builtin) Signature(args []*types.Type) (*types.Type, error) {
	if b.Check != nil {
		return b.Check(args)
	}
	if err := exactly(len(b.Params), args); err != nil {
		return nil, err
	}
	for i, p := range b.Params {
		if !types.AssignableTo(args[i], p) {
			want := p.String()
			if p.Kind() == types.Real {
				want = "int or real"
			}
			return nil, fmt.Errorf("argument %d must be %s, got %s", i+1, want, args[i])
		}
	}
	return b.Result, nil
}

var table [NumBuiltins]*Builtin
var byName = make(map[string]*Builtin)

func register(b Builtin) {
	if b.Built {
		b.Eval = built(b.Eval)
	}
	table[b.ID] = &b
	byName[b.Name] = &b
}

// built charges what eval returns — a string's bytes, an array's elements —
// against the allocation budget.
func built(eval EvalFunc) EvalFunc {
	return func(env *Env, args []value.Value) (value.Value, error) {
		v, err := eval(env, args)
		if err != nil {
			return v, err
		}
		var n int
		if v.K == value.Str {
			n = len(v.Str())
		} else {
			n = v.Array().Len()
		}
		return v, env.alloc(int64(n))
	}
}

// Lookup returns the builtin with the given name, or nil.
func Lookup(name string) *Builtin { return byName[name] }

// ByID returns the builtin with the given id.
func ByID(id int) *Builtin { return table[id] }

// Names returns all builtin names (for diagnostics and docs), in id order.
func Names() []string {
	out := make([]string, 0, NumBuiltins)
	for _, b := range table {
		out = append(out, b.Name)
	}
	return out
}

// Signature helpers of the variadic and generic rows.

func exactly(n int, args []*types.Type) error {
	if len(args) != n {
		return fmt.Errorf("expects %d argument(s), got %d", n, len(args))
	}
	return nil
}

func numericArg(i int, args []*types.Type) error {
	if !args[i].IsNumeric() {
		return fmt.Errorf("argument %d must be int or real, got %s", i+1, args[i])
	}
	return nil
}

// Kernel adapters: a fixed row's Eval is its sem kernel over the argument
// kinds its Params promise.

func real1(f func(float64) float64) EvalFunc {
	return func(_ *Env, args []value.Value) (value.Value, error) {
		return value.NewReal(f(args[0].Real())), nil
	}
}

func realToInt(f func(float64) (int64, error)) EvalFunc {
	return func(_ *Env, args []value.Value) (value.Value, error) {
		v, err := f(args[0].Real())
		return value.NewInt(v), err
	}
}

func str1(f func(string) string) EvalFunc {
	return func(_ *Env, args []value.Value) (value.Value, error) {
		return value.NewString(f(args[0].Str())), nil
	}
}

func str2Bool(f func(a, b string) bool) EvalFunc {
	return func(_ *Env, args []value.Value) (value.Value, error) {
		return value.NewBool(f(args[0].Str(), args[1].Str())), nil
	}
}

// Parameter lists shared by several rows.
var (
	real1Params = []*types.Type{types.RealType}
	str1Params  = []*types.Type{types.StringType}
	str2Params  = []*types.Type{types.StringType, types.StringType}
)

func init() {
	register(Builtin{ID: Print, Name: "print",
		Check: func(args []*types.Type) (*types.Type, error) { return nil, nil }, // variadic, any types
		Eval: func(env *Env, args []value.Value) (value.Value, error) {
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(a.String())
			}
			sb.WriteByte('\n')
			return value.Value{}, env.WriteString(sb.String())
		}})

	register(Builtin{ID: ReadInt, Name: "read_int", Result: types.IntType, Native: "gort.ReadInt",
		Eval: read((*Env).ReadInt, value.NewInt)})
	register(Builtin{ID: ReadReal, Name: "read_real", Result: types.RealType, Native: "gort.ReadReal",
		Eval: read((*Env).ReadReal, value.NewReal)})
	register(Builtin{ID: ReadString, Name: "read_string", Result: types.StringType, Native: "gort.ReadString", Built: true,
		Eval: read((*Env).ReadString, value.NewString)})
	register(Builtin{ID: ReadBool, Name: "read_bool", Result: types.BoolType, Native: "gort.ReadBool",
		Eval: read((*Env).ReadBool, value.NewBool)})

	register(Builtin{ID: Len, Name: "len",
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if !args[0].IsArray() && args[0].Kind() != types.String {
				return nil, fmt.Errorf("argument must be an array or string, got %s", args[0])
			}
			return types.IntType, nil
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			// Arrays count elements; strings count Unicode characters.
			return value.NewInt(sem.Length(args[0])), nil
		}})

	register(Builtin{ID: Range, Name: "range",
		Check: func(args []*types.Type) (*types.Type, error) {
			if len(args) != 1 && len(args) != 2 {
				return nil, fmt.Errorf("expects 1 or 2 arguments, got %d", len(args))
			}
			for i := range args {
				if args[i].Kind() != types.Int {
					return nil, fmt.Errorf("argument %d must be int, got %s", i+1, args[i])
				}
			}
			return types.ArrayOf(types.IntType), nil
		},
		Eval: func(env *Env, args []value.Value) (value.Value, error) {
			lo, hi := int64(0), int64(0)
			if len(args) == 1 {
				hi = args[0].Int() // range(n) = [0, n)
			} else {
				lo, hi = args[0].Int(), args[1].Int() // range(lo, hi) = [lo, hi)
			}
			n, err := sem.RangeNLen(lo, hi)
			if err == nil {
				err = env.alloc(n)
			}
			if err != nil {
				return value.Value{}, err
			}
			return value.NewArray(value.NewIntRange(lo, int(n))), nil
		}})

	register(Builtin{ID: Sqrt, Name: "sqrt", Params: real1Params, Result: types.RealType, Eval: real1(sem.Sqrt), Native: "sem.Sqrt"})
	register(Builtin{ID: Sin, Name: "sin", Params: real1Params, Result: types.RealType, Eval: real1(sem.Sin), Native: "sem.Sin"})
	register(Builtin{ID: Cos, Name: "cos", Params: real1Params, Result: types.RealType, Eval: real1(sem.Cos), Native: "sem.Cos"})
	register(Builtin{ID: Tan, Name: "tan", Params: real1Params, Result: types.RealType, Eval: real1(sem.Tan), Native: "sem.Tan"})
	register(Builtin{ID: Exp, Name: "exp", Params: real1Params, Result: types.RealType, Eval: real1(sem.Exp), Native: "sem.Exp"})
	register(Builtin{ID: Log, Name: "log", Params: real1Params, Result: types.RealType, Eval: real1(sem.Log), Native: "sem.Log"})

	register(Builtin{ID: Abs, Name: "abs",
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if err := numericArg(0, args); err != nil {
				return nil, err
			}
			return args[0], nil // int→int, real→real
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			if args[0].K == value.Int {
				return value.NewInt(sem.AbsInt(args[0].Int())), nil
			}
			return value.NewReal(sem.AbsReal(args[0].Real())), nil
		}})

	register(Builtin{ID: Pow, Name: "pow", Params: []*types.Type{types.RealType, types.RealType}, Result: types.RealType, Native: "sem.Pow",
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewReal(sem.Pow(args[0].Real(), args[1].Real())), nil
		}})

	register(Builtin{ID: Floor, Name: "floor", Params: real1Params, Result: types.IntType, Eval: realToInt(sem.Floor), Native: "gort.Floor"})
	register(Builtin{ID: Ceil, Name: "ceil", Params: real1Params, Result: types.IntType, Eval: realToInt(sem.Ceil), Native: "gort.Ceil"})

	minMaxCheck := func(args []*types.Type) (*types.Type, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("expects at least 2 arguments, got %d", len(args))
		}
		allInt := true
		for i := range args {
			if err := numericArg(i, args); err != nil {
				return nil, err
			}
			if args[i].Kind() != types.Int {
				allInt = false
			}
		}
		if allInt {
			return types.IntType, nil
		}
		return types.RealType, nil
	}
	register(Builtin{ID: Min, Name: "min", Check: minMaxCheck,
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return minMaxEval(args, func(a, b float64) bool { return a < b }), nil
		}})
	register(Builtin{ID: Max, Name: "max", Check: minMaxCheck,
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return minMaxEval(args, func(a, b float64) bool { return a > b }), nil
		}})

	register(Builtin{ID: ToString, Name: "to_string", Built: true,
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			return types.StringType, nil
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(args[0].String()), nil
		}})

	register(Builtin{ID: ToInt, Name: "to_int",
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			switch args[0].Kind() {
			case types.Int, types.Real, types.String, types.Bool:
				return types.IntType, nil
			}
			return nil, fmt.Errorf("cannot convert %s to int", args[0])
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			var v int64
			var err error
			switch args[0].K {
			case value.Int:
				return args[0], nil
			case value.Real:
				v, err = sem.TruncReal(args[0].Real())
			case value.Bool:
				v = sem.BoolToInt(args[0].Bool())
			default:
				v, err = sem.ParseInt(args[0].Str())
			}
			return value.NewInt(v), err
		}})

	register(Builtin{ID: ToReal, Name: "to_real",
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			switch args[0].Kind() {
			case types.Int, types.Real, types.String:
				return types.RealType, nil
			}
			return nil, fmt.Errorf("cannot convert %s to real", args[0])
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			switch args[0].K {
			case value.Int, value.Real:
				return value.NewReal(args[0].AsReal()), nil
			default:
				v, err := sem.ParseReal(args[0].Str())
				return value.NewReal(v), err
			}
		}})

	register(Builtin{ID: Substring, Name: "substring", Params: []*types.Type{types.StringType, types.IntType, types.IntType},
		Result: types.StringType, Native: "gort.Substring", Built: true,
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			out, err := sem.Substring(args[0].Str(), args[1].Int(), args[2].Int())
			return value.NewString(out), err
		}})

	register(Builtin{ID: ToUpper, Name: "to_upper", Params: str1Params, Result: types.StringType, Eval: str1(sem.ToUpper), Native: "sem.ToUpper", Built: true})
	register(Builtin{ID: ToLower, Name: "to_lower", Params: str1Params, Result: types.StringType, Eval: str1(sem.ToLower), Native: "sem.ToLower", Built: true})

	register(Builtin{ID: Find, Name: "find", Params: str2Params, Result: types.IntType, Native: "sem.Find",
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(sem.Find(args[0].Str(), args[1].Str())), nil
		}})

	register(Builtin{ID: Split, Name: "split", Params: str2Params, Result: types.ArrayOf(types.StringType), Native: "gort.Split", Built: true,
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewArray(value.NewStringArray(sem.Split(args[0].Str(), args[1].Str()))), nil
		}})

	register(Builtin{ID: Join, Name: "join", Params: []*types.Type{types.ArrayOf(types.StringType), types.StringType},
		Result: types.StringType, Native: "gort.Join", Built: true,
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			a := args[0].Array()
			parts := make([]string, a.Len())
			for i := range parts {
				parts[i] = a.Get(i).Str()
			}
			return value.NewString(sem.Join(parts, args[1].Str())), nil
		}})

	register(Builtin{ID: StartsWith, Name: "starts_with", Params: str2Params, Result: types.BoolType, Eval: str2Bool(sem.StartsWith), Native: "sem.StartsWith"})
	register(Builtin{ID: EndsWith, Name: "ends_with", Params: str2Params, Result: types.BoolType, Eval: str2Bool(sem.EndsWith), Native: "sem.EndsWith"})
	register(Builtin{ID: Contains, Name: "contains", Params: str2Params, Result: types.BoolType, Eval: str2Bool(sem.Contains), Native: "sem.Contains"})

	register(Builtin{ID: Trim, Name: "trim", Params: str1Params, Result: types.StringType, Eval: str1(sem.Trim), Native: "sem.Trim", Built: true})

	register(Builtin{ID: Repeat, Name: "repeat", Params: []*types.Type{types.StringType, types.IntType}, Result: types.StringType, Native: "gort.Repeat",
		Eval: func(env *Env, args []value.Value) (value.Value, error) {
			s, n := args[0].Str(), args[1].Int()
			size, err := sem.RepeatLen(s, n)
			if err == nil {
				err = env.alloc(size)
			}
			if err != nil {
				return value.Value{}, err
			}
			out, err := sem.Repeat(s, n)
			return value.NewString(out), err
		}})

	register(Builtin{ID: Reverse, Name: "reverse", Params: str1Params, Result: types.StringType, Eval: str1(sem.Reverse), Native: "sem.Reverse", Built: true})

	register(Builtin{ID: Sort, Name: "sort", Built: true,
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if !args[0].IsArray() {
				return nil, fmt.Errorf("argument must be an array, got %s", args[0])
			}
			switch args[0].Elem().Kind() {
			case types.Int, types.Real, types.String:
				return args[0], nil
			}
			return nil, fmt.Errorf("cannot sort %s (element type must be int, real or string)", args[0])
		},
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			src := args[0].Array()
			elems := src.Values()
			sort.SliceStable(elems, func(i, j int) bool {
				a, b := elems[i], elems[j]
				if a.K == value.Str {
					return a.Str() < b.Str()
				}
				return a.AsReal() < b.AsReal()
			})
			return value.NewArray(value.FromSlice(src.Elem, elems)), nil
		}})

	register(Builtin{ID: Push, Name: "push",
		Check: func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			if !args[0].IsArray() {
				return nil, fmt.Errorf("argument 1 must be an array, got %s", args[0])
			}
			if !types.AssignableTo(args[1], args[0].Elem()) {
				return nil, fmt.Errorf("cannot push %s onto %s", args[1], args[0])
			}
			return nil, nil
		},
		Eval: func(env *Env, args []value.Value) (value.Value, error) {
			if err := env.alloc(1); err != nil {
				return value.Value{}, err
			}
			a := args[0].Array()
			a.Append(value.Convert(args[1], a.Elem))
			return value.Value{}, nil
		}})

	register(Builtin{ID: Sleep, Name: "sleep", Params: []*types.Type{types.IntType}, Native: "gort.Sleep",
		Eval: func(env *Env, args []value.Value) (value.Value, error) {
			return value.Value{}, env.Sleep(args[0].Int())
		}})

	register(Builtin{ID: TimeMS, Name: "time_ms", Result: types.IntType, Native: "gort.TimeMS",
		Eval: func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(time.Now().UnixMilli()), nil
		}})
}

func minMaxEval(args []value.Value, better func(a, b float64) bool) value.Value {
	best := args[0]
	allInt := best.K == value.Int
	for _, a := range args[1:] {
		if a.K != value.Int {
			allInt = false
		}
		if better(a.AsReal(), best.AsReal()) {
			best = a
		}
	}
	if allInt {
		return best
	}
	return value.NewReal(best.AsReal())
}
