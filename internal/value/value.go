// Package value defines the runtime representation of Tetra values and the
// variable cells threads share.
//
// A Value is three machine words — a kind tag, a 64-bit payload and one
// pointer — rather than an interface, so that integer and real arithmetic
// never allocates: the paper reports "a lot of effort was put into ensuring
// that the interpreter actually provides speedup when given a parallel
// program" (§IV), and per-operation boxing would dominate the profile. The
// size is part of the contract, not an accident. The Go compiler keeps a
// struct in registers — as an SSA value, as an argument and as a result —
// only while it has at most four word-sized fields; a fifth field turns
// every register read, every sem.Arith argument and result and every
// Cell.Load into a memory-to-memory copy with a write barrier. Three words
// leave one spare; TestLayout fails if a later field crosses the limit.
//
// Strings and arrays share the one pointer word, which takes unsafe. All of
// it is in this file, behind NewString/NewArray and Str/Array, and it is
// sound for these reasons:
//
//   - the word is a real unsafe.Pointer, never a uintptr, so the collector
//     traces whatever it points at: a string's bytes and an *Array alike
//     stay alive exactly as long as a Value that names them;
//   - a string's pointer may be interior to a larger allocation (a
//     substring, a slice of a concatenation) or point into read-only data
//     (a constant) — both are ordinary for Go pointers;
//   - an empty string carries length 0 and whatever pointer it had; the
//     pointer is never dereferenced;
//   - the accessors are total: Str is "" unless K == Str and Array is nil
//     unless K == Arr, so an ill-kinded Value (the comparison kernels and
//     the fuzzers produce them) reads as a zero payload and the pointer is
//     never reinterpreted as the other kind's.
//
// The pointer word is unexported, so no other package can break the pairing
// of K with what the pointer means; K and B stay exported because the
// engines switch on one and do arithmetic on the other.
//
// Variables are Cells. Because Tetra threads share the enclosing function's
// symbol table (paper §IV: "they have private and shared symbol tables"),
// a cell can be read and written by several goroutines at once. Cells guard
// the stored value with a mutex so the *interpreter* stays memory-safe in
// Go terms, while Tetra-level read-modify-write races (the lost-update in
// Figure III's max program) remain fully observable for teaching.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// Kind tags a runtime value. It mirrors types.Kind but is separate so the
// runtime does not depend on type objects.
type Kind uint8

// Runtime value kinds. None is the "absence of a value" produced by void
// calls and unset cells.
const (
	None Kind = iota
	Int
	Real
	Str
	Bool
	Arr
)

// Value is a single Tetra runtime value in three words:
//
//	kind   B                      p
//	None   0                      nil
//	Int    the int64's bits       nil
//	Real   the float64's bits     nil
//	Bool   0 or 1                 nil
//	Str    length in bytes        first byte (any pointer when the length is 0)
//	Arr    0                      the *Array
//
// Build strings and arrays with NewString and NewArray and read them with
// Str and Array. K and B may be read directly, and written only together on
// a scalar: a string's B is the length its pointer is good for. The zero
// Value is None.
type Value struct {
	K Kind
	B uint64
	p unsafe.Pointer
}

// Constructors.

// NewInt returns an int value.
func NewInt(v int64) Value { return Value{K: Int, B: uint64(v)} }

// NewReal returns a real value.
func NewReal(v float64) Value { return Value{K: Real, B: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(s string) Value {
	return Value{K: Str, B: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewBool returns a bool value.
func NewBool(b bool) Value {
	if b {
		return Value{K: Bool, B: 1}
	}
	return Value{K: Bool}
}

// NewArray returns an array value wrapping a.
func NewArray(a *Array) Value { return Value{K: Arr, p: unsafe.Pointer(a)} }

// Accessors. Int, Real and Bool do not check the kind — they reinterpret B,
// which is harmless — and their callers are the interpreter and VM, which
// run over type-checked programs. Str and Array do check it, because they
// give the pointer word a type: on any other kind they return "" and nil.

// Int returns the int payload.
func (v Value) Int() int64 { return int64(v.B) }

// Real returns the real payload.
func (v Value) Real() float64 { return math.Float64frombits(v.B) }

// Str returns the string payload, or "" when v is not a string.
func (v Value) Str() string {
	if v.K != Str {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.B))
}

// Bool returns the bool payload.
func (v Value) Bool() bool { return v.B != 0 }

// Array returns the array payload, or nil when v is not an array.
func (v Value) Array() *Array {
	if v.K != Arr {
		return nil
	}
	return (*Array)(v.p)
}

// AsReal returns the numeric payload widened to float64; it accepts both
// int and real values (the implicit int→real widening).
func (v Value) AsReal() float64 {
	if v.K == Int {
		return float64(int64(v.B))
	}
	return math.Float64frombits(v.B)
}

// Equal reports deep value equality. Arrays compare element-wise.
func Equal(a, b Value) bool {
	if a.K != b.K {
		// Allow numeric cross-kind comparison: 1 == 1.0.
		if (a.K == Int || a.K == Real) && (b.K == Int || b.K == Real) {
			return a.AsReal() == b.AsReal()
		}
		return false
	}
	switch a.K {
	case Int, Bool:
		return a.B == b.B
	case Real:
		return a.Real() == b.Real()
	case Str:
		return a.Str() == b.Str()
	case Arr:
		x, y := a.Array(), b.Array()
		if x == y {
			return true
		}
		if x == nil || y == nil || x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if !Equal(x.Get(i), y.Get(i)) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Identical reports whether a and b are the same value with no conversion:
// same kind, same payload bits (so 1 and 1.0 differ, 0.0 and -0.0 differ and
// a NaN is identical to itself), strings by content, arrays by identity. It
// is what interning a constant needs, where Equal would be too coarse.
func Identical(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == Str {
		return a.Str() == b.Str()
	}
	return a.B == b.B && a.p == b.p
}

// String renders the value the way Tetra's print does: Python-ish, arrays
// as [a, b, c], reals with a trailing .0 when integral.
func (v Value) String() string {
	switch v.K {
	case Int:
		return strconv.FormatInt(int64(v.B), 10)
	case Real:
		return FormatReal(v.Real())
	case Str:
		return v.Str()
	case Bool:
		if v.B != 0 {
			return "true"
		}
		return "false"
	case Arr:
		var sb strings.Builder
		sb.WriteByte('[')
		a := v.Array()
		for i := 0; i < a.Len(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			el := a.Get(i)
			if el.K == Str {
				sb.WriteString(strconv.Quote(el.Str()))
			} else {
				sb.WriteString(el.String())
			}
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "none"
	}
}

// FormatReal renders a float64 in Tetra's print format: shortest
// representation, with ".0" appended to integral values so reals stay
// visually distinct from ints.
func FormatReal(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// TypeOf returns the static type matching the value's dynamic shape. Array
// element types are taken from the array's recorded element type, so empty
// arrays stay typed.
func TypeOf(v Value) *types.Type {
	switch v.K {
	case Int:
		return types.IntType
	case Real:
		return types.RealType
	case Str:
		return types.StringType
	case Bool:
		return types.BoolType
	case Arr:
		if a := v.Array(); a != nil && a.Elem != nil {
			return types.ArrayOf(a.Elem)
		}
		return types.ArrayOf(types.IntType)
	default:
		return nil
	}
}

// Zero returns the zero value of a static type: 0, 0.0, "", false, or an
// empty array.
func Zero(t *types.Type) Value {
	switch t.Kind() {
	case types.Int:
		return NewInt(0)
	case types.Real:
		return NewReal(0)
	case types.String:
		return NewString("")
	case types.Bool:
		return NewBool(false)
	case types.Array:
		return NewArray(NewArrayOf(t.Elem(), 0))
	default:
		return Value{}
	}
}

// Convert coerces v to the target type, applying int→real widening. It is
// used at assignment, argument-passing and return boundaries. Converting to
// the value's own type is the identity.
func Convert(v Value, t *types.Type) Value {
	if t.Kind() == types.Real && v.K == Int {
		return NewReal(float64(int64(v.B)))
	}
	return v
}

// Bind converts an argument handed in from outside the language (the
// engines' Call) for parameter name of type t as a compiled call site
// would — an int widens to real — and rejects one that is then still not a
// t. Inside the language the checker guarantees it; compiled code relies
// on a variable's kind being its static type and does not look again.
func Bind(v Value, name string, t *types.Type) (Value, error) {
	v = Convert(v, t)
	if got := TypeOf(v); !types.Equal(got, t) {
		if got == nil {
			return Value{}, fmt.Errorf("parameter %s is %s, got no value", name, t)
		}
		return Value{}, fmt.Errorf("parameter %s is %s, got %s", name, t, got)
	}
	return v, nil
}

// Array is a Tetra array: reference semantics, like a Python list. Elem
// records the static element type so empty arrays keep their typing and
// print sensibly.
//
// Concurrent access to *distinct* elements from parallel threads is always
// safe. For scalar element types (int, real, bool) the elements live in a
// word array accessed atomically, so even a Tetra-level race on the *same*
// element — the unlocked double-checked reads the paper's Figure III
// pattern relies on — can never tear a value or trip Go's race detector:
// racy Tetra programs misbehave only in Tetra terms (lost updates), never
// in Go terms. String- and array-element races remain undefined behaviour,
// exactly as in the original Pthreads interpreter; programs use `lock`.
//
// Append (the future-work growable operation) is not safe against
// concurrent access of any kind.
type Array struct {
	Elem *types.Type
	// scalar is the element kind for word storage, or None for boxed
	// storage (string/array elements).
	scalar Kind
	words  []uint64 // scalar elements, accessed with sync/atomic
	elems  []Value  // boxed elements
}

// scalarKindFor returns the word-storage kind for an element type, or
// None when elements must be boxed.
func scalarKindFor(elem *types.Type) Kind {
	switch elem.Kind() {
	case types.Int:
		return Int
	case types.Real:
		return Real
	case types.Bool:
		return Bool
	default:
		return None
	}
}

// NewArrayOf allocates an array of n zero elements of the given type.
func NewArrayOf(elem *types.Type, n int) *Array {
	a := &Array{Elem: elem, scalar: scalarKindFor(elem)}
	if a.scalar != None {
		a.words = make([]uint64, n) // zero bits are the zero value for all three kinds
		return a
	}
	a.elems = make([]Value, n)
	z := Zero(elem)
	for i := range a.elems {
		a.elems[i] = z
	}
	return a
}

// FromSlice builds an array from the given elements. When elem is nil the
// element type is the first value's (an empty nil-typed array stays
// untyped, with boxed storage).
func FromSlice(elem *types.Type, elems []Value) *Array {
	if elem == nil && len(elems) > 0 {
		elem = TypeOf(elems[0])
	}
	a := &Array{Elem: elem, scalar: scalarKindFor(elem)}
	if a.scalar != None {
		a.words = make([]uint64, len(elems))
		for i, v := range elems {
			a.words[i] = v.B
		}
		return a
	}
	a.elems = elems
	return a
}

// NewIntRange returns the int array lo, lo+1, …, lo+n-1, writing the word
// storage directly: the range literal and the range builtin build nothing
// but these, and can be large.
func NewIntRange(lo int64, n int) *Array {
	a := NewArrayOf(types.IntType, n)
	for i := range a.words {
		a.words[i] = uint64(lo) + uint64(i)
	}
	return a
}

// Len returns the number of elements.
func (a *Array) Len() int {
	if a.scalar != None {
		return len(a.words)
	}
	return len(a.elems)
}

// Get returns element i. The caller has already bounds-checked (sem.Index,
// sem.ArrayIndex) or relies on the runtime's bounds error.
func (a *Array) Get(i int) Value {
	if a.scalar != None {
		return Value{K: a.scalar, B: atomic.LoadUint64(&a.words[i])}
	}
	return a.elems[i]
}

// Set stores element i.
func (a *Array) Set(i int, v Value) {
	if a.scalar != None {
		atomic.StoreUint64(&a.words[i], v.B)
		return
	}
	a.elems[i] = v
}

// Values returns a snapshot copy of the elements, for bulk operations
// (sort builtin, tests).
func (a *Array) Values() []Value {
	out := make([]Value, a.Len())
	for i := range out {
		out[i] = a.Get(i)
	}
	return out
}

// Append grows the array by one element; used by the push builtin. Arrays
// in Tetra proper are fixed-size (push is future-work library surface),
// and Append must not race with any concurrent access.
func (a *Array) Append(v Value) {
	if a.scalar != None {
		a.words = append(a.words, v.B)
		return
	}
	a.elems = append(a.elems, v)
}

// Cell is a variable: one mutable slot shared between the threads that can
// see it. Load and Store take an internal mutex so concurrent access never
// corrupts interpreter state; Tetra programs still observe genuine races
// (interleaved read-modify-write), which is the pedagogical point.
//
// For frames the checker proves are never shared across threads (functions
// containing no parallel constructs), the interpreter uses the unlocked
// fast path via LoadLocal/StoreLocal.
type Cell struct {
	mu sync.Mutex
	v  Value
}

// NewCell returns a cell holding v.
func NewCell(v Value) *Cell {
	return &Cell{v: v}
}

// Load returns the cell's value, synchronized.
func (c *Cell) Load() Value {
	c.mu.Lock()
	v := c.v
	c.mu.Unlock()
	return v
}

// Store replaces the cell's value, synchronized.
func (c *Cell) Store(v Value) {
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
}

// LoadLocal returns the value without locking. Only valid when the checker
// has proven the enclosing frame is thread-private.
func (c *Cell) LoadLocal() Value { return c.v }

// StoreLocal stores without locking under the same condition.
func (c *Cell) StoreLocal(v Value) { c.v = v }

// RuntimeError is a Tetra runtime error (index out of bounds, division by
// zero, ...), carrying a message and source location string.
type RuntimeError struct {
	Msg string
	Pos string
}

func (e *RuntimeError) Error() string {
	if e.Pos != "" {
		return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}
