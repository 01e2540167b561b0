package stdlib

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"repro/internal/guard"
	"repro/internal/types"
	"repro/internal/value"
)

func env(input string) (*Env, *bytes.Buffer) {
	var out bytes.Buffer
	return NewEnv(strings.NewReader(input), &out), &out
}

// evalB runs builtin `name` on args, failing the test on error.
func evalB(t *testing.T, e *Env, name string, args ...value.Value) value.Value {
	t.Helper()
	b := Lookup(name)
	if b == nil {
		t.Fatalf("no builtin %q", name)
	}
	v, err := b.Eval(e, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestLookupAndIDs(t *testing.T) {
	names := Names()
	if len(names) != NumBuiltins {
		t.Fatalf("Names() returned %d entries, want %d", len(names), NumBuiltins)
	}
	for id, name := range names {
		b := Lookup(name)
		if b == nil || b.ID != id || ByID(id) != b {
			t.Errorf("builtin %q id mapping broken", name)
		}
	}
	if Lookup("no_such_builtin") != nil {
		t.Error("Lookup of unknown name should be nil")
	}
}

func TestPrint(t *testing.T) {
	e, out := env("")
	evalB(t, e, "print", value.NewInt(1), value.NewString(" and "), value.NewReal(2.5))
	if got := out.String(); got != "1 and 2.5\n" {
		t.Errorf("print wrote %q", got)
	}
	evalB(t, e, "print")
	if !strings.HasSuffix(out.String(), "\n\n") {
		t.Errorf("empty print should write a newline: %q", out.String())
	}
}

func TestReadBuiltins(t *testing.T) {
	e, _ := env("42 2.5 true\nhello world\n")
	if v := evalB(t, e, "read_int"); v.Int() != 42 {
		t.Errorf("read_int = %v", v)
	}
	if v := evalB(t, e, "read_real"); v.Real() != 2.5 {
		t.Errorf("read_real = %v", v)
	}
	if v := evalB(t, e, "read_bool"); !v.Bool() {
		t.Errorf("read_bool = %v", v)
	}
	if v := evalB(t, e, "read_string"); v.Str() != "hello world" {
		t.Errorf("read_string = %q", v.Str())
	}
}

func TestReadErrors(t *testing.T) {
	e, _ := env("notanumber")
	if _, err := Lookup("read_int").Eval(e, nil); err == nil {
		t.Error("read_int on garbage should fail")
	}
	e2, _ := env("")
	if _, err := Lookup("read_string").Eval(e2, nil); err == nil {
		t.Error("read_string at EOF should fail")
	}
	e3, _ := env("maybe")
	if _, err := Lookup("read_bool").Eval(e3, nil); err == nil {
		t.Error("read_bool on garbage should fail")
	}
}

func TestLen(t *testing.T) {
	e, _ := env("")
	arr := value.NewArray(value.FromSlice(types.IntType, []value.Value{value.NewInt(1), value.NewInt(2)}))
	if v := evalB(t, e, "len", arr); v.Int() != 2 {
		t.Errorf("len(array) = %v", v)
	}
	if v := evalB(t, e, "len", value.NewString("abcd")); v.Int() != 4 {
		t.Errorf("len(string) = %v", v)
	}
}

func TestRange(t *testing.T) {
	e, _ := env("")
	v := evalB(t, e, "range", value.NewInt(4))
	a := v.Array()
	if a.Len() != 4 || a.Get(0).Int() != 0 || a.Get(3).Int() != 3 {
		t.Errorf("range(4) = %v", v)
	}
	v2 := evalB(t, e, "range", value.NewInt(2), value.NewInt(5))
	a2 := v2.Array()
	if a2.Len() != 3 || a2.Get(0).Int() != 2 || a2.Get(2).Int() != 4 {
		t.Errorf("range(2,5) = %v", v2)
	}
	v3 := evalB(t, e, "range", value.NewInt(5), value.NewInt(2))
	if v3.Array().Len() != 0 {
		t.Errorf("range(5,2) should be empty")
	}
}

func TestMathBuiltins(t *testing.T) {
	e, _ := env("")
	// A fixed row's kernel gets the kinds its Params name: the call site
	// has widened an int argument already.
	if v := evalB(t, e, "sqrt", value.NewReal(9)); v.Real() != 3 {
		t.Errorf("sqrt(9) = %v", v)
	}
	if v := evalB(t, e, "abs", value.NewInt(-5)); v.K != value.Int || v.Int() != 5 {
		t.Errorf("abs(-5) = %v", v)
	}
	if v := evalB(t, e, "abs", value.NewReal(-1.5)); v.K != value.Real || v.Real() != 1.5 {
		t.Errorf("abs(-1.5) = %v", v)
	}
	if v := evalB(t, e, "pow", value.NewReal(2), value.NewReal(10)); v.Real() != 1024 {
		t.Errorf("pow(2,10) = %v", v)
	}
	if v := evalB(t, e, "floor", value.NewReal(2.7)); v.K != value.Int || v.Int() != 2 {
		t.Errorf("floor(2.7) = %v", v)
	}
	if v := evalB(t, e, "ceil", value.NewReal(2.1)); v.Int() != 3 {
		t.Errorf("ceil(2.1) = %v", v)
	}
	if v := evalB(t, e, "sin", value.NewReal(0)); v.Real() != 0 {
		t.Errorf("sin(0) = %v", v)
	}
	if v := evalB(t, e, "cos", value.NewReal(0)); v.Real() != 1 {
		t.Errorf("cos(0) = %v", v)
	}
	if v := evalB(t, e, "exp", value.NewReal(0)); v.Real() != 1 {
		t.Errorf("exp(0) = %v", v)
	}
	if v := evalB(t, e, "log", value.NewReal(math.E)); math.Abs(v.Real()-1) > 1e-12 {
		t.Errorf("log(e) = %v", v)
	}
	if v := evalB(t, e, "tan", value.NewReal(0)); v.Real() != 0 {
		t.Errorf("tan(0) = %v", v)
	}
}

func TestMinMax(t *testing.T) {
	e, _ := env("")
	if v := evalB(t, e, "min", value.NewInt(3), value.NewInt(1), value.NewInt(2)); v.K != value.Int || v.Int() != 1 {
		t.Errorf("min ints = %v", v)
	}
	if v := evalB(t, e, "max", value.NewInt(3), value.NewReal(3.5)); v.K != value.Real || v.Real() != 3.5 {
		t.Errorf("max mixed = %v", v)
	}
	if v := evalB(t, e, "min", value.NewInt(1), value.NewReal(2.0)); v.K != value.Real || v.Real() != 1.0 {
		t.Errorf("min mixed promotes to real: %v", v)
	}
}

func TestConversions(t *testing.T) {
	e, _ := env("")
	if v := evalB(t, e, "to_string", value.NewInt(42)); v.Str() != "42" {
		t.Errorf("to_string(42) = %q", v.Str())
	}
	if v := evalB(t, e, "to_int", value.NewString(" 17 ")); v.Int() != 17 {
		t.Errorf("to_int string = %v", v)
	}
	if v := evalB(t, e, "to_int", value.NewReal(3.9)); v.Int() != 3 {
		t.Errorf("to_int real truncates: %v", v)
	}
	if v := evalB(t, e, "to_int", value.NewBool(true)); v.Int() != 1 {
		t.Errorf("to_int bool = %v", v)
	}
	if v := evalB(t, e, "to_real", value.NewString("2.5")); v.Real() != 2.5 {
		t.Errorf("to_real string = %v", v)
	}
	if v := evalB(t, e, "to_real", value.NewInt(2)); v.Real() != 2.0 {
		t.Errorf("to_real int = %v", v)
	}
	if _, err := Lookup("to_int").Eval(e, []value.Value{value.NewString("xyz")}); err == nil {
		t.Error("to_int on garbage should fail")
	}
	if _, err := Lookup("to_real").Eval(e, []value.Value{value.NewString("xyz")}); err == nil {
		t.Error("to_real on garbage should fail")
	}
}

func TestStringBuiltins(t *testing.T) {
	e, _ := env("")
	s := value.NewString("Hello, World")
	if v := evalB(t, e, "substring", s, value.NewInt(0), value.NewInt(5)); v.Str() != "Hello" {
		t.Errorf("substring = %q", v.Str())
	}
	if _, err := Lookup("substring").Eval(e, []value.Value{s, value.NewInt(5), value.NewInt(2)}); err == nil {
		t.Error("reversed substring bounds should fail")
	}
	if _, err := Lookup("substring").Eval(e, []value.Value{s, value.NewInt(0), value.NewInt(99)}); err == nil {
		t.Error("out-of-range substring should fail")
	}
	if v := evalB(t, e, "to_upper", s); v.Str() != "HELLO, WORLD" {
		t.Errorf("to_upper = %q", v.Str())
	}
	if v := evalB(t, e, "to_lower", s); v.Str() != "hello, world" {
		t.Errorf("to_lower = %q", v.Str())
	}
	if v := evalB(t, e, "find", s, value.NewString("World")); v.Int() != 7 {
		t.Errorf("find = %v", v)
	}
	if v := evalB(t, e, "find", s, value.NewString("xyz")); v.Int() != -1 {
		t.Errorf("find missing = %v", v)
	}
	if v := evalB(t, e, "starts_with", s, value.NewString("Hello")); !v.Bool() {
		t.Error("starts_with")
	}
	if v := evalB(t, e, "ends_with", s, value.NewString("World")); !v.Bool() {
		t.Error("ends_with")
	}
	if v := evalB(t, e, "contains", s, value.NewString(", ")); !v.Bool() {
		t.Error("contains")
	}
	if v := evalB(t, e, "trim", value.NewString("  x \n")); v.Str() != "x" {
		t.Errorf("trim = %q", v.Str())
	}
	if v := evalB(t, e, "repeat", value.NewString("ab"), value.NewInt(3)); v.Str() != "ababab" {
		t.Errorf("repeat = %q", v.Str())
	}
	if _, err := Lookup("repeat").Eval(e, []value.Value{s, value.NewInt(-1)}); err == nil {
		t.Error("negative repeat should fail")
	}
	if v := evalB(t, e, "reverse", value.NewString("abc")); v.Str() != "cba" {
		t.Errorf("reverse = %q", v.Str())
	}
	if v := evalB(t, e, "reverse", value.NewString("héllo")); v.Str() != "olléh" {
		t.Errorf("unicode reverse = %q", v.Str())
	}
}

func TestSplitJoin(t *testing.T) {
	e, _ := env("")
	v := evalB(t, e, "split", value.NewString("a,b,c"), value.NewString(","))
	a := v.Array()
	if a.Len() != 3 || a.Get(1).Str() != "b" {
		t.Errorf("split = %v", v)
	}
	// Empty separator splits on whitespace.
	v2 := evalB(t, e, "split", value.NewString("  a  b "), value.NewString(""))
	if v2.Array().Len() != 2 {
		t.Errorf("split whitespace = %v", v2)
	}
	j := evalB(t, e, "join", v, value.NewString("-"))
	if j.Str() != "a-b-c" {
		t.Errorf("join = %q", j.Str())
	}
}

func TestSortBuiltin(t *testing.T) {
	e, _ := env("")
	arr := value.NewArray(value.FromSlice(types.IntType, []value.Value{
		value.NewInt(3), value.NewInt(1), value.NewInt(2),
	}))
	v := evalB(t, e, "sort", arr)
	got := v.Array()
	if got.Get(0).Int() != 1 || got.Get(1).Int() != 2 || got.Get(2).Int() != 3 {
		t.Errorf("sort = %v", v)
	}
	// Original untouched (sort returns a copy).
	if arr.Array().Get(0).Int() != 3 {
		t.Error("sort mutated its argument")
	}
	sv := evalB(t, e, "sort", value.NewArray(value.FromSlice(types.StringType, []value.Value{
		value.NewString("b"), value.NewString("a"),
	})))
	if sv.Array().Get(0).Str() != "a" {
		t.Errorf("string sort = %v", sv)
	}
}

// Property: sort yields a sorted permutation of its input.
func TestSortProperty(t *testing.T) {
	e, _ := env("")
	f := func(xs []int64) bool {
		elems := make([]value.Value, len(xs))
		for i, x := range xs {
			elems[i] = value.NewInt(x)
		}
		in := value.NewArray(value.FromSlice(types.IntType, elems))
		out, err := Lookup("sort").Eval(e, []value.Value{in})
		if err != nil {
			return false
		}
		got := out.Array()
		if got.Len() != len(xs) {
			return false
		}
		var back []int64
		for i := 0; i < got.Len(); i++ {
			back = append(back, got.Get(i).Int())
		}
		if !sort.SliceIsSorted(back, func(i, j int) bool { return back[i] < back[j] }) {
			return false
		}
		// Permutation check via sorted copies.
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if back[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPush(t *testing.T) {
	e, _ := env("")
	arr := value.NewArray(value.NewArrayOf(types.RealType, 0))
	evalB(t, e, "push", arr, value.NewInt(3)) // int widens into [real]
	if arr.Array().Len() != 1 || arr.Array().Get(0).K != value.Real {
		t.Errorf("push widen failed: %v", arr)
	}
}

func TestCheckSignatures(t *testing.T) {
	cases := []struct {
		name string
		args []*types.Type
		want *types.Type // nil = void
		ok   bool
	}{
		{"print", []*types.Type{types.IntType, types.StringType}, nil, true},
		{"read_int", nil, types.IntType, true},
		{"read_int", []*types.Type{types.IntType}, nil, false},
		{"len", []*types.Type{types.ArrayOf(types.BoolType)}, types.IntType, true},
		{"len", []*types.Type{types.IntType}, nil, false},
		{"sqrt", []*types.Type{types.IntType}, types.RealType, true},
		{"sqrt", []*types.Type{types.StringType}, nil, false},
		{"abs", []*types.Type{types.IntType}, types.IntType, true},
		{"abs", []*types.Type{types.RealType}, types.RealType, true},
		{"min", []*types.Type{types.IntType, types.IntType}, types.IntType, true},
		{"min", []*types.Type{types.IntType, types.RealType}, types.RealType, true},
		{"min", []*types.Type{types.IntType}, nil, false},
		{"range", []*types.Type{types.IntType}, types.ArrayOf(types.IntType), true},
		{"range", []*types.Type{types.RealType}, nil, false},
		{"split", []*types.Type{types.StringType, types.StringType}, types.ArrayOf(types.StringType), true},
		{"join", []*types.Type{types.ArrayOf(types.StringType), types.StringType}, types.StringType, true},
		{"join", []*types.Type{types.ArrayOf(types.IntType), types.StringType}, nil, false},
		{"sort", []*types.Type{types.ArrayOf(types.IntType)}, types.ArrayOf(types.IntType), true},
		{"sort", []*types.Type{types.ArrayOf(types.ArrayOf(types.IntType))}, nil, false},
		{"push", []*types.Type{types.ArrayOf(types.RealType), types.IntType}, nil, true},
		{"push", []*types.Type{types.ArrayOf(types.IntType), types.StringType}, nil, false},
		{"sleep", []*types.Type{types.IntType}, nil, true},
		{"time_ms", nil, types.IntType, true},
		{"to_string", []*types.Type{types.ArrayOf(types.IntType)}, types.StringType, true},
	}
	for _, c := range cases {
		b := Lookup(c.name)
		if b == nil {
			t.Fatalf("no builtin %q", c.name)
		}
		got, err := b.Signature(c.args)
		if c.ok && err != nil {
			t.Errorf("%s%v: unexpected error %v", c.name, c.args, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s%v: expected signature error", c.name, c.args)
			}
			continue
		}
		if !types.Equal(got, c.want) {
			t.Errorf("%s%v result = %v, want %v", c.name, c.args, got, c.want)
		}
	}

	// From the table: what every fixed row's signature must accept and
	// refuse — its parameters (an int where one is real), one argument too
	// many, and a bool, which no parameter takes, in each position.
	fixed := 0
	for id := 0; id < NumBuiltins; id++ {
		b := ByID(id)
		if (b.Check == nil) == (b.Native == "") || (b.Check != nil && (b.Params != nil || b.Result != nil)) {
			t.Errorf("%s: a row is Params, Result and Native, or a Check with gogen's arm", b.Name)
		}
		if b.Check != nil {
			continue
		}
		fixed++
		args := make([]*types.Type, len(b.Params))
		for i, p := range b.Params {
			args[i] = p
			if p.Kind() == types.Real {
				args[i] = types.IntType
			}
		}
		if got, err := b.Signature(args); err != nil || !types.Equal(got, b.Result) {
			t.Errorf("%s%v = %v, %v; want %v", b.Name, args, got, err, b.Result)
		}
		want := fmt.Sprintf("expects %d argument(s), got %d", len(b.Params), len(b.Params)+1)
		if _, err := b.Signature(append(args, types.IntType)); err == nil || err.Error() != want {
			t.Errorf("%s with an argument too many: %v, want %q", b.Name, err, want)
		}
		for i, p := range b.Params {
			bad := append([]*types.Type(nil), args...)
			bad[i] = types.BoolType
			name := p.String()
			if p.Kind() == types.Real {
				name = "int or real"
			}
			want := fmt.Sprintf("argument %d must be %s, got bool", i+1, name)
			if _, err := b.Signature(bad); err == nil || err.Error() != want {
				t.Errorf("%s with a bool for argument %d: %v, want %q", b.Name, i+1, err, want)
			}
		}
	}
	if fixed != 27 {
		t.Errorf("%d fixed rows, want 27", fixed)
	}
}

// TestBuiltRowsAreCharged holds the allocation budget to the table: a row
// that returns a string or an array is Built (range and repeat charge what
// they size themselves), and a Built row's result is charged once it exists.
func TestBuiltRowsAreCharged(t *testing.T) {
	str, strs := value.NewString("a b c"), value.NewArray(value.FromSlice(types.StringType, []value.Value{value.NewString("ab"), value.NewString("cd")}))
	ints := value.NewArray(value.NewIntRange(0, 4))
	calls := map[string]struct {
		args []value.Value
		want int64 // cells charged
	}{
		"read_string": {nil, 5},
		"range":       {[]value.Value{value.NewInt(7)}, 7},
		"to_string":   {[]value.Value{ints}, int64(len("[0, 1, 2, 3]"))},
		"substring":   {[]value.Value{str, value.NewInt(1), value.NewInt(4)}, 3},
		"to_upper":    {[]value.Value{str}, 5},
		"to_lower":    {[]value.Value{str}, 5},
		"split":       {[]value.Value{str, value.NewString(" ")}, 3},
		"join":        {[]value.Value{strs, value.NewString("-")}, 5},
		"trim":        {[]value.Value{value.NewString(" ab ")}, 2},
		"repeat":      {[]value.Value{str, value.NewInt(3)}, 15},
		"reverse":     {[]value.Value{str}, 5},
		"sort":        {[]value.Value{ints}, 4},
		"push":        {[]value.Value{ints, value.NewInt(9)}, 1},
	}
	for id := 0; id < NumBuiltins; id++ {
		b := ByID(id)
		c, charged := calls[b.Name]
		if r := b.Result; b.Check == nil && (r.Kind() == types.String || r.IsArray()) != (b.Built || b.ID == Repeat) {
			t.Errorf("%s returns %v, Built is %v", b.Name, r, b.Built)
		}
		if b.Built && !charged {
			t.Errorf("%s is Built but this test does not call it", b.Name)
		}
		if !charged {
			continue
		}
		e, _ := env("hello\nhello\n")
		g := guard.New(guard.Limits{MaxAllocCells: c.want})
		e.SetGuard(g)
		if _, err := b.Eval(e, c.args); err != nil {
			t.Errorf("%s within a budget of %d cells: %v", b.Name, c.want, err)
		}
		if _, err := b.Eval(e, c.args); err == nil || err.Error() != fmt.Sprintf("exceeded allocation budget (%d cells)", c.want) {
			t.Errorf("%s past a budget of %d cells: err = %v", b.Name, c.want, err)
		}
	}
}

// TestLanguageDocListsEveryBuiltin is the guard that LANGUAGE.md §7 names
// every row of the table.
func TestLanguageDocListsEveryBuiltin(t *testing.T) {
	doc, err := os.ReadFile("../../LANGUAGE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 7. Builtins\n")
	if !ok {
		t.Fatal("LANGUAGE.md has no section 7, Builtins")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	words := strings.FieldsFunc(sec, func(r rune) bool { return r != '_' && !unicode.IsLetter(r) })
	for _, name := range Names() {
		if !slices.Contains(words, name) {
			t.Errorf("LANGUAGE.md §7 does not mention %s", name)
		}
	}
}

func TestConcurrentPrintAtomic(t *testing.T) {
	e, out := env("")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				evalB(t, e, "print", value.NewString("abcdefghij"))
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if line != "abcdefghij" {
			t.Fatalf("interleaved print line %q", line)
		}
	}
}
