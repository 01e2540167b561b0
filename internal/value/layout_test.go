package value_test

// Tests that pin the three-word representation. They live in the external
// test package so they can feed Values the strings internal/sem really
// produces (substrings, rune slices), and CI runs them under -race, whose
// checkptr instrumentation rejects an unsafe.String over memory that is not
// one allocation.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// TestLayout keeps Value within the four words the compiler will hold in
// registers; see the package comment. The VM's other hot structure is
// pinned beside it: an instruction is an opcode and four operands, 20
// bytes.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(bytecode.Instr{}); got != 20 {
		t.Errorf("unsafe.Sizeof(bytecode.Instr{}) = %d, want 20", got)
	}
	if got := unsafe.Sizeof(value.Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(value.Cell{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Cell{}) = %d, want 32", got)
	}
}

// oneOfEachKind returns a value of every kind, the zero Value included, with
// payloads chosen so that a misread pointer word would show.
func oneOfEachKind() []value.Value {
	return []value.Value{
		{},
		value.NewInt(-7),
		value.NewInt(1 << 40), // a B that would be a wild string length
		value.NewReal(2.5),
		value.NewBool(true),
		value.NewString(""),
		value.NewString("héllo"),
		value.NewArray(value.NewIntRange(1, 3)),
		value.NewArray(nil),
	}
}

func TestAccessorsTotal(t *testing.T) {
	for _, v := range oneOfEachKind() {
		// None of these may panic, whatever the kind.
		_, _, _ = v.Int(), v.Real(), v.Bool()
		s, a := v.Str(), v.Array()
		if v.K != value.Str && s != "" {
			t.Errorf("Str() on kind %d = %q, want \"\"", v.K, s)
		}
		if v.K != value.Arr && a != nil {
			t.Errorf("Array() on kind %d = %v, want nil", v.K, a)
		}
		// The consumers that receive ill-kinded pairs.
		for _, w := range oneOfEachKind() {
			_ = value.Equal(v, w)
			_ = value.Identical(v, w)
		}
		if v.K != value.Arr || a != nil {
			_ = v.String()
		}
		_ = value.TypeOf(v)
	}
}

func TestIdentical(t *testing.T) {
	a := value.NewIntRange(0, 2)
	nan := value.NewReal(math.NaN())
	cases := []struct {
		x, y value.Value
		want bool
	}{
		{value.NewInt(1), value.NewInt(1), true},
		{value.NewInt(1), value.NewReal(1), false}, // Equal says true
		{value.NewInt(1), value.NewBool(true), false},
		{value.NewReal(0), value.NewReal(math.Copysign(0, -1)), false}, // Equal says true
		{nan, nan, true}, // Equal says false
		{value.NewString("ab"), value.NewString(strings.Clone("ab")), true},
		{value.NewString("ab"), value.NewString("abc"[:2]), true},
		{value.NewString("ab"), value.NewString("ac"), false},
		{value.NewString(""), value.NewString("x"[1:]), true},
		{value.NewString(""), value.Value{}, false},
		{value.NewArray(a), value.NewArray(a), true},
		{value.NewArray(a), value.NewArray(value.NewIntRange(0, 2)), false}, // Equal says true
		{value.Value{}, value.Value{}, true},
	}
	for _, c := range cases {
		if got := value.Identical(c.x, c.y); got != c.want {
			t.Errorf("Identical(%s, %s) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := value.Identical(c.y, c.x); got != c.want {
			t.Errorf("Identical(%s, %s) = %v, want %v", c.y, c.x, got, c.want)
		}
	}
}

func TestNewIntRange(t *testing.T) {
	a := value.NewIntRange(-2, 5)
	if a.Len() != 5 || !types.Equal(a.Elem, types.IntType) {
		t.Fatalf("NewIntRange(-2, 5): len %d elem %v", a.Len(), a.Elem)
	}
	for i := 0; i < 5; i++ {
		if got := a.Get(i); got.K != value.Int || got.Int() != int64(i-2) {
			t.Errorf("element %d = %s", i, got)
		}
	}
	if got := value.NewArray(a).String(); got != "[-2, -1, 0, 1, 2]" {
		t.Errorf("String() = %s", got)
	}
	if value.NewIntRange(7, 0).Len() != 0 {
		t.Error("NewIntRange(7, 0) is not empty")
	}
	a.Set(0, value.NewInt(9)) // still an ordinary, writable int array
	if a.Get(0).Int() != 9 {
		t.Error("Set on a range array did not stick")
	}
}

// FuzzStringRoundTrip checks that a string comes back out of a Value as it
// went in, whatever its bytes and wherever they live, and that the
// string-reading functions see the same content.
func FuzzStringRoundTrip(f *testing.F) {
	f.Add("", "", int64(0))
	f.Add("héllo wörld", "héllo", int64(1))
	f.Add("\xff\xfe\x80 not utf-8 \xc3", "\xff", int64(-1))
	f.Add(strings.Repeat("0123456789abcdef", 1<<16), "x", int64(1<<19)) // 1 MiB
	f.Add("日本語", "日本語", int64(2))
	f.Fuzz(func(t *testing.T, s, other string, i int64) {
		check := func(s string) {
			t.Helper()
			v := value.NewString(s)
			if v.K != value.Str || v.Str() != s || v.String() != s {
				t.Fatalf("NewString(%q): kind %d, Str %q, String %q", s, v.K, v.Str(), v.String())
			}
			if v.Array() != nil {
				t.Fatalf("NewString(%q).Array() != nil", s)
			}
			w := value.NewString(strings.Clone(s)) // same bytes, another address
			if !value.Equal(v, w) || !value.Identical(v, w) {
				t.Fatalf("NewString(%q) differs from its clone", s)
			}
			o := value.NewString(other)
			if got, want := value.Equal(v, o), s == other; got != want {
				t.Fatalf("Equal(%q, %q) = %v", s, other, got)
			}
			if got, want := value.Identical(v, o), s == other; got != want {
				t.Fatalf("Identical(%q, %q) = %v", s, other, got)
			}
			if got, want := value.NewArray(value.FromSlice(types.StringType, []value.Value{v})).String(), fmt.Sprintf("[%q]", s); got != want {
				t.Fatalf("array of %q prints %s", s, got)
			}
		}
		check(s)
		// Interior pointers: one character of s, and a byte substring.
		if r, ok := sem.RuneAt(s, i); ok {
			check(r)
		}
		lo := int(uint64(i) % uint64(len(s)+1))
		check(s[lo:])
		check(s[:lo])
	})
}

// churn allocates and drops garbage of the sizes strings and arrays use, so
// that a collection between two reads has something to reuse freed memory
// for.
func churn() {
	var keep [][]byte
	for i := 0; i < 2000; i++ {
		keep = append(keep, make([]byte, 1+i%300))
	}
	runtime.KeepAlive(keep)
}

// TestSurvivesGC holds run-time-built strings and arrays only through
// Values — in a slice, in a Cell, as array elements — and reads them back
// after several collections. The collector sees the payload through the
// unsafe.Pointer word alone; were that word invisible to it (a uintptr, say)
// the bytes would be freed and reused by churn.
func TestSurvivesGC(t *testing.T) {
	const n = 200
	var held []value.Value
	var cells []*value.Cell
	var want []string

	hold := func(v value.Value) {
		want = append(want, strings.Clone(v.String()))
		held = append(held, v)
		cells = append(cells, value.NewCell(v))
	}
	for i := 0; i < n; i++ {
		// Concatenation: a fresh allocation nothing else names.
		cat, err := sem.Arith(sem.Add, value.NewString(fmt.Sprint("héllo-", i, "-")), value.NewString(strings.Repeat("ö", i%17)))
		if err != nil {
			t.Fatal(err)
		}
		hold(cat)
		// An interior pointer into that allocation.
		r, ok := sem.RuneAt(cat.Str(), int64(i%5))
		if !ok {
			t.Fatalf("RuneAt(%q, %d)", cat.Str(), i%5)
		}
		hold(value.NewString(r))
		// Arrays of strings, of ints, and of arrays, reachable only from here.
		hold(value.NewArray(sem.RunesArray(cat.Str())))
		hold(value.NewArray(value.NewIntRange(int64(i), 40)))
		hold(value.NewArray(value.FromSlice(nil, []value.Value{
			value.NewArray(sem.RunesArray(r + "z")), value.NewArray(value.NewIntRange(0, i%7)),
		})))
	}
	for cycle := 0; cycle < 4; cycle++ {
		churn()
		runtime.GC()
	}
	for i, w := range want {
		if got := held[i].String(); got != w {
			t.Fatalf("value %d read back as %q, want %q", i, got, w)
		}
		if got := cells[i].Load(); !value.Equal(got, held[i]) || got.String() != w {
			t.Fatalf("cell %d read back as %q, want %q", i, got, w)
		}
	}
}

var sinkValue value.Value

// BenchmarkCellLoadStore is the variable access both engines make for a
// shared frame (Load/Store, under the cell's mutex) and for a private one
// (LoadLocal/StoreLocal): a read-modify-write of an int through a Cell.
func BenchmarkCellLoadStore(b *testing.B) {
	b.Run("locked", func(b *testing.B) {
		c := value.NewCell(value.NewInt(0))
		for i := 0; i < b.N; i++ {
			c.Store(value.NewInt(c.Load().Int() + 1))
		}
		sinkValue = c.Load()
	})
	b.Run("local", func(b *testing.B) {
		c := value.NewCell(value.NewInt(0))
		for i := 0; i < b.N; i++ {
			c.StoreLocal(value.NewInt(c.LoadLocal().Int() + 1))
		}
		sinkValue = c.LoadLocal()
	})
}
