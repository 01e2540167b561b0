package value

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(-42); v.K != Int || v.Int() != -42 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewReal(2.5); v.K != Real || v.Real() != 2.5 {
		t.Errorf("NewReal: %+v", v)
	}
	if v := NewString("hi"); v.K != Str || v.Str() != "hi" {
		t.Errorf("NewString: %+v", v)
	}
	if v := NewBool(true); v.K != Bool || !v.Bool() {
		t.Errorf("NewBool(true): %+v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): %+v", v)
	}
	a := NewArrayOf(types.IntType, 3)
	if v := NewArray(a); v.K != Arr || v.Array() != a {
		t.Errorf("NewArray: %+v", v)
	}
}

func TestAsReal(t *testing.T) {
	if NewInt(3).AsReal() != 3.0 {
		t.Error("int AsReal")
	}
	if NewReal(3.5).AsReal() != 3.5 {
		t.Error("real AsReal")
	}
}

func TestEqual(t *testing.T) {
	arr1 := NewArray(FromSlice(types.IntType, []Value{NewInt(1), NewInt(2)}))
	arr2 := NewArray(FromSlice(types.IntType, []Value{NewInt(1), NewInt(2)}))
	arr3 := NewArray(FromSlice(types.IntType, []Value{NewInt(1), NewInt(3)}))
	arrShort := NewArray(FromSlice(types.IntType, []Value{NewInt(1)}))
	nested1 := NewArray(FromSlice(types.ArrayOf(types.IntType), []Value{arr1}))
	nested2 := NewArray(FromSlice(types.ArrayOf(types.IntType), []Value{arr2}))

	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewReal(1.0), true}, // cross-kind numeric
		{NewReal(1.5), NewInt(1), false},
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewBool(false), false},
		{NewInt(1), NewString("1"), false},
		{arr1, arr1, true},
		{arr1, arr2, true},
		{arr1, arr3, false},
		{arr1, arrShort, false},
		{nested1, nested2, true},
	}
	for i, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("case %d: Equal(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	arr := NewArray(FromSlice(types.IntType, []Value{NewInt(1), NewInt(2)}))
	strArr := NewArray(FromSlice(types.StringType, []Value{NewString("a"), NewString("b")}))
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-1), "-1"},
		{NewReal(2.5), "2.5"},
		{NewReal(3), "3.0"}, // integral reals keep .0
		{NewReal(math.Inf(1)), "inf"},
		{NewReal(math.Inf(-1)), "-inf"},
		{NewReal(math.NaN()), "nan"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{arr, "[1, 2]"},
		{strArr, `["a", "b"]`}, // strings quoted inside arrays
		{Value{}, "none"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Property: FormatReal output parses back to the same float64 (shortest
// round-trip representation).
func TestFormatRealRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := FormatReal(x)
		back, err := strconv.ParseFloat(s, 64)
		return err == nil && back == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTypeOf(t *testing.T) {
	if !types.Equal(TypeOf(NewInt(1)), types.IntType) {
		t.Error("TypeOf int")
	}
	if !types.Equal(TypeOf(NewReal(1)), types.RealType) {
		t.Error("TypeOf real")
	}
	arr := NewArray(NewArrayOf(types.StringType, 0))
	if !types.Equal(TypeOf(arr), types.ArrayOf(types.StringType)) {
		t.Error("TypeOf array keeps element type even when empty")
	}
	if TypeOf(Value{}) != nil {
		t.Error("TypeOf none should be nil")
	}
}

func TestZero(t *testing.T) {
	if Zero(types.IntType).Int() != 0 {
		t.Error("zero int")
	}
	if Zero(types.RealType).Real() != 0 {
		t.Error("zero real")
	}
	if Zero(types.StringType).Str() != "" {
		t.Error("zero string")
	}
	if Zero(types.BoolType).Bool() {
		t.Error("zero bool")
	}
	za := Zero(types.ArrayOf(types.IntType))
	if za.K != Arr || za.Array().Len() != 0 {
		t.Error("zero array should be empty")
	}
}

func TestConvert(t *testing.T) {
	v := Convert(NewInt(3), types.RealType)
	if v.K != Real || v.Real() != 3.0 {
		t.Errorf("int→real convert: %+v", v)
	}
	same := Convert(NewInt(3), types.IntType)
	if same.K != Int || same.Int() != 3 {
		t.Errorf("identity convert: %+v", same)
	}
	s := Convert(NewString("x"), types.StringType)
	if s.Str() != "x" {
		t.Errorf("string convert: %+v", s)
	}
}

func TestArray(t *testing.T) {
	a := NewArrayOf(types.IntType, 3)
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	for i := 0; i < 3; i++ {
		if a.Get(i).Int() != 0 {
			t.Errorf("element %d not zeroed", i)
		}
	}
	a.Set(1, NewInt(7))
	if a.Get(1).Int() != 7 {
		t.Error("Set/Get failed")
	}
	a.Append(NewInt(9))
	if a.Len() != 4 || a.Get(3).Int() != 9 {
		t.Error("Append failed")
	}
	if len(a.Values()) != 4 {
		t.Error("Values length wrong")
	}
	// Zeroed string array elements are typed strings, not none.
	sa := NewArrayOf(types.StringType, 2)
	if sa.Get(0).K != Str {
		t.Error("string array zero element has wrong kind")
	}
}

// TestKindMirrorsTypes: a static type's runtime kind is a conversion.
func TestKindMirrorsTypes(t *testing.T) {
	for k, want := range map[types.Kind]Kind{types.Invalid: None, types.Int: Int, types.Real: Real,
		types.String: Str, types.Bool: Bool, types.Array: Arr} {
		if Kind(k) != want {
			t.Errorf("types kind %d converts to %d, want %d", k, Kind(k), want)
		}
	}
}

func TestCellSynchronized(t *testing.T) {
	c := NewCell(NewInt(0))
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				c.Store(NewInt(int64(j)))
				_ = c.Load()
			}
		}()
	}
	wg.Wait()
	v := c.Load()
	if v.K != Int {
		t.Errorf("cell corrupted: %+v", v)
	}
}

func TestCellHoldsAString(t *testing.T) {
	c := NewCell(NewString("a"))
	if c.Load().Str() != "a" {
		t.Error("Load of the constructor's value")
	}
	c.Store(NewString("b"))
	if v := c.Load(); v.K != Str || v.Str() != "b" {
		t.Errorf("Load after Store = %+v", v)
	}
}

func TestRuntimeError(t *testing.T) {
	e := &RuntimeError{Msg: "boom", Pos: "f.ttr:1:2"}
	if got := e.Error(); got != "f.ttr:1:2: runtime error: boom" {
		t.Errorf("error = %q", got)
	}
	e2 := &RuntimeError{Msg: "boom"}
	if got := e2.Error(); got != "runtime error: boom" {
		t.Errorf("error = %q", got)
	}
}
