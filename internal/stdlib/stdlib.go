// Package stdlib implements Tetra's built-in function library.
//
// The paper's standard library is "extremely spartan ... basic I/O functions
// and functions for finding the lengths of strings and arrays" (§VI), with a
// richer math/string library listed as future work. This package implements
// both: the core builtins (print, read_*, len) and the future-work library
// (math, string handling, conversions, sort), so the reproduction covers the
// planned system as well as the published one.
//
// Each builtin carries a check-time signature function (consumed by
// internal/check) and a runtime implementation (shared by the tree-walking
// interpreter and the bytecode VM so the two backends cannot drift apart).
// The implementations here are dispatch and I/O only: the computational
// kernels — parsing, bounds rules, string operations, error wording —
// live in internal/sem, the semantics core shared with the compiled
// runtime (internal/gort), so all three backends evaluate identically.
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
	numBuiltins
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

// SetGuard attaches a resource governor; print output and sleeps are then
// charged against (and interrupted by) its budgets.
func (e *Env) SetGuard(g *guard.Governor) { e.guard = g }

// Printf writes formatted output, serialized against other prints.
func (e *Env) Printf(format string, args ...any) {
	e.writeString(fmt.Sprintf(format, args...)) //nolint:errcheck // diagnostic output
}

// writeString writes raw output, serialized against other prints. The write
// is charged against the governor's output budget first; a write that would
// cross the budget is suppressed entirely so the budget is a hard cap.
func (e *Env) writeString(s string) error {
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

// CheckFunc validates argument types and returns the result type (nil for
// void). It reports errors as plain messages; the checker attaches
// positions.
type CheckFunc func(args []*types.Type) (*types.Type, error)

// EvalFunc executes the builtin.
type EvalFunc func(env *Env, args []value.Value) (value.Value, error)

// Builtin describes one library function.
type Builtin struct {
	ID    int
	Name  string
	Check CheckFunc
	Eval  EvalFunc
}

var table [numBuiltins]*Builtin
var byName = make(map[string]*Builtin)

func register(id int, name string, check CheckFunc, eval EvalFunc) {
	b := &Builtin{ID: id, Name: name, Check: check, Eval: eval}
	table[id] = b
	byName[name] = b
}

// Lookup returns the builtin with the given name, or nil.
func Lookup(name string) *Builtin { return byName[name] }

// ByID returns the builtin with the given id.
func ByID(id int) *Builtin { return table[id] }

// Names returns all builtin names (for diagnostics and docs), in id order.
func Names() []string {
	out := make([]string, 0, numBuiltins)
	for _, b := range table {
		out = append(out, b.Name)
	}
	return out
}

// Signature helpers.

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

func stringArg(i int, args []*types.Type) error {
	if args[i].Kind() != types.String {
		return fmt.Errorf("argument %d must be string, got %s", i+1, args[i])
	}
	return nil
}

func intArg(i int, args []*types.Type) error {
	if args[i].Kind() != types.Int {
		return fmt.Errorf("argument %d must be int, got %s", i+1, args[i])
	}
	return nil
}

// checkNullary returns a signature accepting no arguments.
func checkNullary(result *types.Type) CheckFunc {
	return func(args []*types.Type) (*types.Type, error) {
		if err := exactly(0, args); err != nil {
			return nil, err
		}
		return result, nil
	}
}

// checkReal1 is numeric → real.
func checkReal1(args []*types.Type) (*types.Type, error) {
	if err := exactly(1, args); err != nil {
		return nil, err
	}
	if err := numericArg(0, args); err != nil {
		return nil, err
	}
	return types.RealType, nil
}

// checkStr1 is string → string.
func checkStr1(args []*types.Type) (*types.Type, error) {
	if err := exactly(1, args); err != nil {
		return nil, err
	}
	if err := stringArg(0, args); err != nil {
		return nil, err
	}
	return types.StringType, nil
}

// checkStr2Bool is (string, string) → bool.
func checkStr2Bool(args []*types.Type) (*types.Type, error) {
	if err := exactly(2, args); err != nil {
		return nil, err
	}
	if err := stringArg(0, args); err != nil {
		return nil, err
	}
	if err := stringArg(1, args); err != nil {
		return nil, err
	}
	return types.BoolType, nil
}

func realFn(f func(float64) float64) EvalFunc {
	return func(_ *Env, args []value.Value) (value.Value, error) {
		return value.NewReal(f(args[0].AsReal())), nil
	}
}

func init() {
	register(Print, "print",
		func(args []*types.Type) (*types.Type, error) { return nil, nil }, // variadic, any types
		func(env *Env, args []value.Value) (value.Value, error) {
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(a.String())
			}
			sb.WriteByte('\n')
			if err := env.writeString(sb.String()); err != nil {
				return value.Value{}, err
			}
			return value.Value{}, nil
		})

	register(ReadInt, "read_int", checkNullary(types.IntType),
		func(env *Env, args []value.Value) (value.Value, error) {
			var v int64
			if _, err := fmt.Fscan(env.In, &v); err != nil {
				return value.Value{}, fmt.Errorf("read_int: %v", err)
			}
			return value.NewInt(v), nil
		})

	register(ReadReal, "read_real", checkNullary(types.RealType),
		func(env *Env, args []value.Value) (value.Value, error) {
			var v float64
			if _, err := fmt.Fscan(env.In, &v); err != nil {
				return value.Value{}, fmt.Errorf("read_real: %v", err)
			}
			return value.NewReal(v), nil
		})

	// read_string reads the next input line. When a preceding read_int /
	// read_real / read_bool left only a newline on the current line, that
	// empty remainder is skipped — the classic scanf-then-getline trap
	// beginners hit, absorbed by the library instead of taught the hard way.
	register(ReadString, "read_string", checkNullary(types.StringType),
		func(env *Env, args []value.Value) (value.Value, error) {
			line, err := env.In.ReadString('\n')
			if strings.TrimRight(line, "\r\n") == "" && err == nil {
				line, err = env.In.ReadString('\n')
			}
			if err != nil && line == "" {
				return value.Value{}, fmt.Errorf("read_string: %v", err)
			}
			return value.NewString(strings.TrimRight(line, "\r\n")), nil
		})

	register(ReadBool, "read_bool", checkNullary(types.BoolType),
		func(env *Env, args []value.Value) (value.Value, error) {
			var s string
			if _, err := fmt.Fscan(env.In, &s); err != nil {
				return value.Value{}, fmt.Errorf("read_bool: %v", err)
			}
			if v, ok := sem.ParseBool(s); ok {
				return value.NewBool(v), nil
			}
			return value.Value{}, sem.ErrReadBool(s)
		})

	register(Len, "len",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if !args[0].IsArray() && args[0].Kind() != types.String {
				return nil, fmt.Errorf("argument must be an array or string, got %s", args[0])
			}
			return types.IntType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			// Arrays count elements; strings count Unicode characters.
			return value.NewInt(sem.Length(args[0])), nil
		})

	register(Range, "range",
		func(args []*types.Type) (*types.Type, error) {
			if len(args) != 1 && len(args) != 2 {
				return nil, fmt.Errorf("expects 1 or 2 arguments, got %d", len(args))
			}
			for i := range args {
				if err := intArg(i, args); err != nil {
					return nil, err
				}
			}
			return types.ArrayOf(types.IntType), nil
		},
		func(env *Env, args []value.Value) (value.Value, error) {
			lo, hi := int64(0), int64(0)
			if len(args) == 1 {
				hi = args[0].Int() // range(n) = [0, n)
			} else {
				lo, hi = args[0].Int(), args[1].Int() // range(lo, hi) = [lo, hi)
			}
			n, err := sem.RangeNLen(lo, hi)
			if err != nil {
				return value.Value{}, err
			}
			if g := env.guard; g != nil {
				if k := g.AddAlloc(n); k != guard.OK {
					return value.Value{}, g.Err(k)
				}
			}
			return value.NewArray(value.NewIntRange(lo, int(n))), nil
		})

	register(Sqrt, "sqrt", checkReal1, realFn(sem.Sqrt))
	register(Sin, "sin", checkReal1, realFn(sem.Sin))
	register(Cos, "cos", checkReal1, realFn(sem.Cos))
	register(Tan, "tan", checkReal1, realFn(sem.Tan))
	register(Exp, "exp", checkReal1, realFn(sem.Exp))
	register(Log, "log", checkReal1, realFn(sem.Log))

	register(Abs, "abs",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if err := numericArg(0, args); err != nil {
				return nil, err
			}
			return args[0], nil // int→int, real→real
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			if args[0].K == value.Int {
				return value.NewInt(sem.AbsInt(args[0].Int())), nil
			}
			return value.NewReal(sem.AbsReal(args[0].Real())), nil
		})

	register(Pow, "pow",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			for i := 0; i < 2; i++ {
				if err := numericArg(i, args); err != nil {
					return nil, err
				}
			}
			return types.RealType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewReal(sem.Pow(args[0].AsReal(), args[1].AsReal())), nil
		})

	register(Floor, "floor",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if err := numericArg(0, args); err != nil {
				return nil, err
			}
			return types.IntType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(sem.Floor(args[0].AsReal())), nil
		})

	register(Ceil, "ceil",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if err := numericArg(0, args); err != nil {
				return nil, err
			}
			return types.IntType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(sem.Ceil(args[0].AsReal())), nil
		})

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
	register(Min, "min", minMaxCheck,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return minMaxEval(args, func(a, b float64) bool { return a < b }), nil
		})
	register(Max, "max", minMaxCheck,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return minMaxEval(args, func(a, b float64) bool { return a > b }), nil
		})

	register(ToString, "to_string",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			return types.StringType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(args[0].String()), nil
		})

	register(ToInt, "to_int",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			switch args[0].Kind() {
			case types.Int, types.Real, types.String, types.Bool:
				return types.IntType, nil
			}
			return nil, fmt.Errorf("cannot convert %s to int", args[0])
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			switch args[0].K {
			case value.Int:
				return args[0], nil
			case value.Real:
				return value.NewInt(sem.TruncReal(args[0].Real())), nil
			case value.Bool:
				return value.NewInt(sem.BoolToInt(args[0].Bool())), nil
			default:
				v, err := sem.ParseInt(args[0].Str())
				if err != nil {
					return value.Value{}, err
				}
				return value.NewInt(v), nil
			}
		})

	register(ToReal, "to_real",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			switch args[0].Kind() {
			case types.Int, types.Real, types.String:
				return types.RealType, nil
			}
			return nil, fmt.Errorf("cannot convert %s to real", args[0])
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			switch args[0].K {
			case value.Int, value.Real:
				return value.NewReal(args[0].AsReal()), nil
			default:
				v, err := sem.ParseReal(args[0].Str())
				if err != nil {
					return value.Value{}, err
				}
				return value.NewReal(v), nil
			}
		})

	register(Substring, "substring",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(3, args); err != nil {
				return nil, err
			}
			if err := stringArg(0, args); err != nil {
				return nil, err
			}
			if err := intArg(1, args); err != nil {
				return nil, err
			}
			if err := intArg(2, args); err != nil {
				return nil, err
			}
			return types.StringType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			out, err := sem.Substring(args[0].Str(), args[1].Int(), args[2].Int())
			if err != nil {
				return value.Value{}, err
			}
			return value.NewString(out), nil
		})

	register(ToUpper, "to_upper", checkStr1,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(sem.ToUpper(args[0].Str())), nil
		})
	register(ToLower, "to_lower", checkStr1,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(sem.ToLower(args[0].Str())), nil
		})

	register(Find, "find",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			if err := stringArg(0, args); err != nil {
				return nil, err
			}
			if err := stringArg(1, args); err != nil {
				return nil, err
			}
			return types.IntType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(sem.Find(args[0].Str(), args[1].Str())), nil
		})

	register(Split, "split",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			if err := stringArg(0, args); err != nil {
				return nil, err
			}
			if err := stringArg(1, args); err != nil {
				return nil, err
			}
			return types.ArrayOf(types.StringType), nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			parts := sem.Split(args[0].Str(), args[1].Str())
			elems := make([]value.Value, len(parts))
			for i, p := range parts {
				elems[i] = value.NewString(p)
			}
			return value.NewArray(value.FromSlice(types.StringType, elems)), nil
		})

	register(Join, "join",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			if !args[0].IsArray() || args[0].Elem().Kind() != types.String {
				return nil, fmt.Errorf("argument 1 must be [string], got %s", args[0])
			}
			if err := stringArg(1, args); err != nil {
				return nil, err
			}
			return types.StringType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			a := args[0].Array()
			parts := make([]string, a.Len())
			for i := range parts {
				parts[i] = a.Get(i).Str()
			}
			return value.NewString(sem.Join(parts, args[1].Str())), nil
		})

	register(StartsWith, "starts_with", checkStr2Bool,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewBool(sem.StartsWith(args[0].Str(), args[1].Str())), nil
		})
	register(EndsWith, "ends_with", checkStr2Bool,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewBool(sem.EndsWith(args[0].Str(), args[1].Str())), nil
		})
	register(Contains, "contains", checkStr2Bool,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewBool(sem.Contains(args[0].Str(), args[1].Str())), nil
		})

	register(Trim, "trim", checkStr1,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(sem.Trim(args[0].Str())), nil
		})

	register(Repeat, "repeat",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(2, args); err != nil {
				return nil, err
			}
			if err := stringArg(0, args); err != nil {
				return nil, err
			}
			if err := intArg(1, args); err != nil {
				return nil, err
			}
			return types.StringType, nil
		},
		func(_ *Env, args []value.Value) (value.Value, error) {
			out, err := sem.Repeat(args[0].Str(), args[1].Int())
			if err != nil {
				return value.Value{}, err
			}
			return value.NewString(out), nil
		})

	register(Reverse, "reverse", checkStr1,
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewString(sem.Reverse(args[0].Str())), nil
		})

	register(Sort, "sort",
		func(args []*types.Type) (*types.Type, error) {
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
		func(_ *Env, args []value.Value) (value.Value, error) {
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
		})

	register(Push, "push",
		func(args []*types.Type) (*types.Type, error) {
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
		func(_ *Env, args []value.Value) (value.Value, error) {
			v := args[1]
			a := args[0].Array()
			if a.Elem.Kind() == types.Real && v.K == value.Int {
				v = value.NewReal(float64(v.Int()))
			}
			a.Append(v)
			return value.Value{}, nil
		})

	register(Sleep, "sleep",
		func(args []*types.Type) (*types.Type, error) {
			if err := exactly(1, args); err != nil {
				return nil, err
			}
			if err := intArg(0, args); err != nil {
				return nil, err
			}
			return nil, nil
		},
		func(env *Env, args []value.Value) (value.Value, error) {
			ms := args[0].Int()
			if ms <= 0 {
				return value.Value{}, nil
			}
			d := time.Duration(ms) * time.Millisecond
			var g *guard.Governor
			if env != nil {
				g = env.guard
			}
			if g == nil {
				time.Sleep(d)
				return value.Value{}, nil
			}
			// Sleep in short slices so a tripped limit (deadline, cancel)
			// interrupts the sleep instead of outliving the run.
			const slice = 10 * time.Millisecond
			deadline := time.Now().Add(d)
			for {
				if k := g.Tripped(); k != guard.OK {
					return value.Value{}, g.Err(k)
				}
				remain := time.Until(deadline)
				if remain <= 0 {
					return value.Value{}, nil
				}
				if remain > slice {
					remain = slice
				}
				time.Sleep(remain)
			}
		})

	register(TimeMS, "time_ms", checkNullary(types.IntType),
		func(_ *Env, args []value.Value) (value.Value, error) {
			return value.NewInt(time.Now().UnixMilli()), nil
		})
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
