// Package types defines the static type system of Tetra.
//
// Tetra is statically typed (unlike Python, whose syntax it borrows): every
// expression has a type known at parse/check time. The primitive types are
// int, real, string and bool, plus arrays of any element type including
// nested (multi-dimensional) arrays (paper §II).
package types

// Kind discriminates the type shapes.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Int
	Real
	String
	Bool
	Array
)

// Type is a Tetra static type. Types are interned for the primitives, so
// primitive types compare equal by pointer; use Equal for general
// comparison.
type Type struct {
	kind Kind
	elem *Type // element type for Array
}

// Interned primitive types.
var (
	IntType    = &Type{kind: Int}
	RealType   = &Type{kind: Real}
	StringType = &Type{kind: String}
	BoolType   = &Type{kind: Bool}
)

// ArrayOf returns the array type with the given element type.
func ArrayOf(elem *Type) *Type { return &Type{kind: Array, elem: elem} }

// Kind returns the type's kind.
func (t *Type) Kind() Kind {
	if t == nil {
		return Invalid
	}
	return t.kind
}

// Elem returns the element type of an array type, or nil.
func (t *Type) Elem() *Type {
	if t == nil || t.kind != Array {
		return nil
	}
	return t.elem
}

// IsNumeric reports whether t is int or real.
func (t *Type) IsNumeric() bool {
	k := t.Kind()
	return k == Int || k == Real
}

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t.Kind() == Array }

// Equal reports whether two types are structurally identical. A nil type
// (void) equals only nil.
func Equal(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.kind != b.kind {
		return false
	}
	if a.kind == Array {
		return Equal(a.elem, b.elem)
	}
	return true
}

// AssignableTo reports whether a value of type src may be assigned to a
// target of type dst. Tetra permits the single implicit widening
// int → real; everything else requires exact equality.
func AssignableTo(src, dst *Type) bool {
	if Equal(src, dst) {
		return true
	}
	return src.Kind() == Int && dst.Kind() == Real
}

// String renders the type in Tetra surface syntax: int, real, string, bool,
// [T].
func (t *Type) String() string {
	switch t.Kind() {
	case Int:
		return "int"
	case Real:
		return "real"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Array:
		return "[" + t.elem.String() + "]"
	default:
		return "<invalid>"
	}
}
