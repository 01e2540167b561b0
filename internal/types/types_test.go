package types

import "testing"

func TestKinds(t *testing.T) {
	if IntType.Kind() != Int || RealType.Kind() != Real ||
		StringType.Kind() != String || BoolType.Kind() != Bool {
		t.Error("primitive kinds wrong")
	}
	a := ArrayOf(IntType)
	if a.Kind() != Array || a.Elem() != IntType {
		t.Error("array type wrong")
	}
	var nilT *Type
	if nilT.Kind() != Invalid {
		t.Error("nil type kind should be Invalid")
	}
	if nilT.Elem() != nil || IntType.Elem() != nil {
		t.Error("Elem of non-array should be nil")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b *Type
		want bool
	}{
		{IntType, IntType, true},
		{IntType, RealType, false},
		{nil, nil, true},
		{IntType, nil, false},
		{ArrayOf(IntType), ArrayOf(IntType), true},
		{ArrayOf(IntType), ArrayOf(RealType), false},
		{ArrayOf(ArrayOf(BoolType)), ArrayOf(ArrayOf(BoolType)), true},
		{ArrayOf(ArrayOf(BoolType)), ArrayOf(BoolType), false},
		{ArrayOf(IntType), IntType, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAssignableTo(t *testing.T) {
	cases := []struct {
		src, dst *Type
		want     bool
	}{
		{IntType, IntType, true},
		{IntType, RealType, true}, // implicit widening
		{RealType, IntType, false},
		{BoolType, IntType, false},
		{StringType, StringType, true},
		{ArrayOf(IntType), ArrayOf(IntType), true},
		{ArrayOf(IntType), ArrayOf(RealType), false}, // no deep widening
	}
	for _, c := range cases {
		if got := AssignableTo(c.src, c.dst); got != c.want {
			t.Errorf("AssignableTo(%v, %v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{IntType, "int"},
		{RealType, "real"},
		{StringType, "string"},
		{BoolType, "bool"},
		{ArrayOf(IntType), "[int]"},
		{ArrayOf(ArrayOf(RealType)), "[[real]]"},
		{nil, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNumericPredicates(t *testing.T) {
	if !IntType.IsNumeric() || !RealType.IsNumeric() {
		t.Error("int/real should be numeric")
	}
	if StringType.IsNumeric() || BoolType.IsNumeric() || ArrayOf(IntType).IsNumeric() {
		t.Error("non-numeric types reported numeric")
	}
	if !ArrayOf(IntType).IsArray() || IntType.IsArray() {
		t.Error("IsArray wrong")
	}
}
