// Package sem is the single implementation of Tetra's operational
// semantics. Every backend — the tree-walking interpreter
// (internal/interp), the bytecode VM (internal/vm) and the compiled runtime
// (internal/gort) — evaluates operators, indexes strings and arrays,
// iterates sequences and runs builtin kernels by calling this package, so
// the three execution paths cannot drift apart: there is nothing to drift
// between. (The bytecode compiler negates and widens a numeric literal
// with Neg and ToReal, the kernels the VM would have run on it.)
//
// Before this package existed the semantics were implemented four times,
// and every rule change (rune-correct strings, negative indexing,
// real-division-by-zero) had to be replayed in each copy. Astrée's
// parallelization attributes its soundness to one shared abstract-operation
// layer under all workers; sem gives Tetra-Go the same property for its
// concrete semantics.
//
// Layering: sem sits directly above internal/value (the representation
// layer). Deep value equality and print formatting are representation
// walks, so their code lives with the representation (value.Equal,
// Value.String); sem re-exports them (Equal, Format) as the canonical
// entry points so backends import only sem. Everything else — operator
// evaluation, error wording, rune access, bounds rules, builtin kernels —
// is implemented here and nowhere else, which the grep guard
// (internal/sem/guard_test.go and the CI step) enforces.
//
// Errors: kernels return *sem.Error carrying only the canonical message.
// Backends attach their source position with At; compiled programs panic
// with the message via gort.Raise. This is what keeps error wording
// byte-identical across backends while positions stay backend-local.
package sem

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Op identifies a Tetra binary operator. Arithmetic operators come first,
// comparisons second; IsCompare relies on the split.
type Op uint8

// The binary operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var opNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
}

// String returns the operator mnemonic (matching the bytecode mnemonics).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsCompare reports whether o is one of the six comparison operators.
func (o Op) IsCompare() bool { return o >= Eq }

// Error is a Tetra runtime error without a source position. Kernels return
// it so each backend can attach its own notion of position (AST node,
// bytecode pc, or none for compiled programs, which print the bare
// message).
type Error struct{ Msg string }

func (e *Error) Error() string { return e.Msg }

// Errf builds an Error with a formatted canonical message.
func Errf(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// At attaches a source position to a sem error, producing the positioned
// value.RuntimeError every backend reports. Non-sem errors pass through
// unchanged.
func At(err error, pos string) error {
	if e, ok := err.(*Error); ok {
		return &value.RuntimeError{Msg: e.Msg, Pos: pos}
	}
	return err
}

// Canonical runtime error wording. These strings appear in goldens, the
// docs (LANGUAGE.md §Runtime errors) and every backend's output; they are
// defined once, here.
const (
	MsgDivisionByZero  = "division by zero"
	MsgModuloByZero    = "modulo by zero"
	MsgImmutableString = "strings are immutable; cannot assign to an index of a string"
)

// ErrDivisionByZero and ErrModuloByZero are the shared arithmetic errors.
var (
	ErrDivisionByZero = &Error{Msg: MsgDivisionByZero}
	ErrModuloByZero   = &Error{Msg: MsgModuloByZero}
	ErrImmutableStr   = &Error{Msg: MsgImmutableString}
)

// ErrArrayIndex is the canonical out-of-range error for arrays. i is the
// index the program wrote (before negative-index normalization), n the
// array length.
func ErrArrayIndex(i int64, n int) *Error {
	return Errf("index %d out of range for array of length %d", i, n)
}

// ErrStringIndex is the canonical out-of-range error for strings. n is the
// string's length in Unicode characters.
func ErrStringIndex(i int64, n int) *Error {
	return Errf("index %d out of range for string of length %d", i, n)
}

// Arith evaluates l op r for the five arithmetic operators with Tetra's
// numeric rules: int op int stays int (truncating division, Go-style
// two's-complement wraparound on overflow), any real operand widens both
// sides to real, division and modulo by zero raise (for reals too — a
// silent inf is a poor teacher, LANGUAGE.md §Numbers), and + concatenates
// strings. A non-+ operator on string operands is an internal error: the
// checker rules it out statically, so only a compiler or optimizer bug can
// get here, and failing loudly beats silently concatenating.
func Arith(op Op, l, r value.Value) (value.Value, error) {
	if l.K == value.Str || r.K == value.Str {
		if op != Add || l.K != r.K {
			return value.Value{}, Errf("internal: %s applied to string operands", op)
		}
		return value.NewString(l.Str() + r.Str()), nil
	}
	if l.K == value.Int && r.K == value.Int {
		a, b := l.Int(), r.Int()
		switch op {
		case Add:
			return value.NewInt(a + b), nil
		case Sub:
			return value.NewInt(a - b), nil
		case Mul:
			return value.NewInt(a * b), nil
		case Div:
			if b == 0 {
				return value.Value{}, ErrDivisionByZero
			}
			return value.NewInt(a / b), nil
		default:
			if b == 0 {
				return value.Value{}, ErrModuloByZero
			}
			return value.NewInt(a % b), nil
		}
	}
	a, b := l.AsReal(), r.AsReal()
	switch op {
	case Add:
		return value.NewReal(a + b), nil
	case Sub:
		return value.NewReal(a - b), nil
	case Mul:
		return value.NewReal(a * b), nil
	case Div:
		if b == 0 {
			return value.Value{}, ErrDivisionByZero
		}
		return value.NewReal(a / b), nil
	default:
		if b == 0 {
			return value.Value{}, ErrModuloByZero
		}
		return value.NewReal(math.Mod(a, b)), nil
	}
}

// Compare evaluates any of the six comparison operators to a Go bool.
// Eq/Ne use deep value equality (with int/real cross-kind numeric
// equality); the four relational operators order strings
// lexicographically by bytes, int pairs as ints, and any other numeric
// pair as reals. The checker guarantees relational operands are both
// strings or both numeric.
func Compare(op Op, l, r value.Value) bool {
	switch op {
	case Eq:
		return value.Equal(l, r)
	case Ne:
		return !value.Equal(l, r)
	}
	var cmp int
	if l.K == value.Str {
		switch {
		case l.Str() < r.Str():
			cmp = -1
		case l.Str() > r.Str():
			cmp = 1
		}
	} else if l.K == value.Int && r.K == value.Int {
		a, b := l.Int(), r.Int()
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	} else {
		a, b := l.AsReal(), r.AsReal()
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	}
	switch op {
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// ArithInt is the int-int arithmetic kernel, shaped to inline into
// backend dispatch loops (Arith itself is too large for the inliner, and
// the register VM's hot loops are dominated by these five operators on
// ints). It implements exactly Arith's int column: Go-native truncating
// division and wraparound. Callers must have checked both operands are
// ints and, for Div and Mod, that b is nonzero — on a zero divisor they
// must fall back to Arith so the canonical positioned error (which lives
// only there) is raised.
func ArithInt(op Op, a, b int64) int64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		return a / b
	default:
		return a % b
	}
}

// CompareInt is the int-int comparison kernel, inlinable like ArithInt.
// It implements exactly Compare's int column. Callers must have checked
// both operands are ints.
func CompareInt(op Op, a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

// Neg evaluates unary minus: int stays int, anything else is real.
func Neg(v value.Value) value.Value {
	if v.K == value.Int {
		return value.NewInt(-v.Int())
	}
	return value.NewReal(-v.Real())
}

// Not evaluates logical not.
func Not(v value.Value) value.Value { return value.NewBool(!Truthy(v)) }

// Truthy is Tetra's condition rule. Conditions are statically bool, so
// this simply reads the bool payload; it exists so the rule has one home.
func Truthy(v value.Value) bool { return v.Bool() }

// ToReal applies the implicit int→real widening; reals pass through.
func ToReal(v value.Value) value.Value {
	if v.K == value.Int {
		return value.NewReal(float64(v.Int()))
	}
	return v
}

// Equal is the canonical deep value equality, re-exported from the
// representation layer so backends import only sem.
func Equal(a, b value.Value) bool { return value.Equal(a, b) }

// ArithReal is the real-real arithmetic kernel for + - * /: Arith's real
// column for operands the checker typed real on both sides. Like ArithInt
// it is shaped to inline, so a caller passing a constant operator gets the
// one machine operation. It does not test a divisor: a caller that cannot
// rule out zero uses DivReal (builtins.go), which returns the canonical
// error. Real % is ModReal, beside it: math.Mod is a call, and one call is
// all of the inliner's budget, so it cannot share a function with the
// other four.
func ArithReal(op Op, a, b float64) float64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	default:
		return a / b
	}
}

// CompareReal is the real-real comparison kernel. It implements exactly
// Compare's ordering, in which <= is "not greater" and >= is "not less":
// with a NaN operand Lt and Gt are false and Le and Ge true, so negating
// an operator (Lt/Ge, Le/Gt, Eq/Ne) negates the result on every input.
func CompareReal(op Op, a, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return !(a > b)
	case Gt:
		return a > b
	default:
		return !(a < b)
	}
}
