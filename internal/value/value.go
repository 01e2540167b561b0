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
// Tetra threads have "private and shared symbol tables" (paper §IV), so a
// variable in the shared one — a Cell — and any array element can be read
// and written by several goroutines at once. Each such place is one word
// of shared storage, accessed atomically (see Cell and box), so a racy
// program misbehaves only in Tetra terms — an interleaved read-modify-write
// loses an update, as in Figure III's max program — never in Go terms.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// Kind tags a runtime value. It mirrors types.Kind, value for value (so a
// static type's kind converts), but is separate so the runtime does not
// depend on type objects.
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
// Every element is one word of shared storage (see Cell): an int, real or
// bool element is its payload bits, a string or array element a pointer
// (box), and each is read and written atomically. So parallel threads may
// read and write any element, the same one included, without a lock: a
// Tetra-level race loses an update but never tears a value or trips Go's
// race detector.
//
// Append (the future-work growable operation) is not safe against
// concurrent access of any kind.
type Array struct {
	Elem  *types.Type
	kind  Kind             // the elements' kind, fixed with Elem
	words []uint64         // int, real and bool elements; nil otherwise
	ptrs  []unsafe.Pointer // string and array elements
}

// NewArrayOf allocates an array of n zero elements of the given type.
func NewArrayOf(elem *types.Type, n int) *Array {
	a := &Array{Elem: elem, kind: Kind(elem.Kind())}
	if a.kind.inWord() {
		a.words = make([]uint64, n) // zero bits are the zero value for all three kinds
		return a
	}
	a.ptrs = make([]unsafe.Pointer, n)
	z := box(Zero(elem))
	for i := range a.ptrs {
		a.ptrs[i] = z
	}
	return a
}

// FromSlice builds an array from the given elements. When elem is nil the
// element type is the first value's (an empty nil-typed array stays
// untyped).
func FromSlice(elem *types.Type, elems []Value) *Array {
	if elem == nil && len(elems) > 0 {
		elem = TypeOf(elems[0])
	}
	a := &Array{Elem: elem, kind: Kind(elem.Kind())}
	if a.kind.inWord() {
		a.words = make([]uint64, len(elems))
		for i, v := range elems {
			a.words[i] = v.B
		}
		return a
	}
	if a.kind == Str {
		strs := make([]string, len(elems))
		for i, v := range elems {
			strs[i] = v.Str()
		}
		return NewStringArray(strs)
	}
	a.ptrs = make([]unsafe.Pointer, len(elems))
	for i, v := range elems {
		a.ptrs[i] = v.p
	}
	return a
}

// NewStringArray returns the string array of strs, which it keeps as the
// elements' boxes: nothing may write strs afterwards.
func NewStringArray(strs []string) *Array {
	a := &Array{Elem: types.StringType, kind: Str, ptrs: make([]unsafe.Pointer, len(strs))}
	for i := range strs {
		a.ptrs[i] = unsafe.Pointer(&strs[i])
	}
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
func (a *Array) Len() int { return len(a.words) + len(a.ptrs) }

// Get returns element i. The caller has already bounds-checked (sem.Index,
// sem.ArrayIndex) or relies on the runtime's bounds error.
func (a *Array) Get(i int) Value {
	if a.words != nil {
		return Value{K: a.kind, B: atomic.LoadUint64(&a.words[i])}
	}
	return unbox(a.kind, atomic.LoadPointer(&a.ptrs[i]))
}

// Set stores element i.
func (a *Array) Set(i int, v Value) {
	if a.words != nil {
		atomic.StoreUint64(&a.words[i], v.B)
		return
	}
	a.setPtr(i, v)
}

// setPtr is Set's path for a pointer element, out of line so that Set
// inlines.
//
//go:noinline
func (a *Array) setPtr(i int, v Value) { atomic.StorePointer(&a.ptrs[i], box(v)) }

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
	if a.words != nil {
		a.words = append(a.words, v.B)
		return
	}
	a.ptrs = append(a.ptrs, box(v))
}

// Cell is a variable that several threads can see: one word of shared
// storage, read and written atomically, so a racy program loses updates
// (the lost update of Figure III's max program stays observable) but never
// reads a torn value. Its kind is fixed when it is made — the checker fixes
// a variable's type — and every Store must be of that kind. A variable no
// other thread can see is a plain Value in its engine's frame.
type Cell struct {
	w    atomic.Uint64  // an int, real or bool
	p    unsafe.Pointer // a string or array: see box
	kind Kind
}

// NewCell returns a cell of v's kind holding v.
func NewCell(v Value) *Cell {
	c := &Cell{kind: v.K}
	c.Store(v)
	return c
}

// Load returns the cell's value.
func (c *Cell) Load() Value {
	if c.kind.inWord() {
		return Value{K: c.kind, B: c.w.Load()}
	}
	return unbox(c.kind, atomic.LoadPointer(&c.p))
}

// Store replaces the cell's value.
func (c *Cell) Store(v Value) {
	if c.kind.inWord() {
		c.w.Store(v.B)
		return
	}
	atomic.StorePointer(&c.p, box(v))
}

// inWord reports whether a value of kind k is its payload bits alone, as
// an int, real or bool is; a string or array is a pointer word.
func (k Kind) inWord() bool { return k == Int || k == Real || k == Bool }

// box returns the pointer word that holds v, a string or an array, in
// shared storage. An array is its own pointer. A string is two words, so
// it gets a box: a string header allocated for this store and never
// written again, so a reader sees either the old box or the new one.
func box(v Value) unsafe.Pointer {
	if v.K == Str {
		s := v.Str()
		return unsafe.Pointer(&s)
	}
	return v.p
}

// unbox is box's inverse for a word of kind k.
func unbox(k Kind, p unsafe.Pointer) Value {
	if k == Str {
		return NewString(*(*string)(p))
	}
	return Value{K: k, p: p}
}

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
