package sem

import (
	"math"
	"strings"
	"testing"

	"repro/internal/value"
)

func vi(v int64) value.Value   { return value.NewInt(v) }
func vr(v float64) value.Value { return value.NewReal(v) }
func vs(s string) value.Value  { return value.NewString(s) }
func vb(b bool) value.Value    { return value.NewBool(b) }

// TestArithTable is the exhaustive operator × operand-kind table for the
// arithmetic kernels: every operator against int/int, int/real, real/int,
// real/real and (for +) str/str, pinning both results and error wording.
func TestArithTable(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		l, r value.Value
		want value.Value
		errS string // expected error substring; "" = success
	}{
		// int op int stays int; division truncates.
		{"add_ii", Add, vi(7), vi(3), vi(10), ""},
		{"sub_ii", Sub, vi(7), vi(3), vi(4), ""},
		{"mul_ii", Mul, vi(7), vi(3), vi(21), ""},
		{"div_ii", Div, vi(7), vi(3), vi(2), ""},
		{"div_ii_neg", Div, vi(-7), vi(3), vi(-2), ""},
		{"mod_ii", Mod, vi(7), vi(3), vi(1), ""},
		{"mod_ii_neg", Mod, vi(-7), vi(3), vi(-1), ""},
		// Overflow wraps two's-complement, like Go.
		{"add_overflow", Add, vi(math.MaxInt64), vi(1), vi(math.MinInt64), ""},
		{"mul_overflow", Mul, vi(math.MaxInt64), vi(2), vi(-2), ""},
		// Any real operand widens the whole operation.
		{"add_ir", Add, vi(1), vr(0.5), vr(1.5), ""},
		{"add_ri", Add, vr(0.5), vi(1), vr(1.5), ""},
		{"sub_rr", Sub, vr(1.5), vr(0.25), vr(1.25), ""},
		{"mul_rr", Mul, vr(1.5), vr(2), vr(3), ""},
		{"div_ir", Div, vi(7), vr(2), vr(3.5), ""},
		{"mod_rr", Mod, vr(7.5), vr(2), vr(1.5), ""},
		{"mod_rr_neg", Mod, vr(-7.5), vr(2), vr(math.Mod(-7.5, 2)), ""},
		// Division and modulo by zero raise — for ints AND reals.
		{"div_ii_zero", Div, vi(1), vi(0), value.Value{}, MsgDivisionByZero},
		{"mod_ii_zero", Mod, vi(1), vi(0), value.Value{}, MsgModuloByZero},
		{"div_rr_zero", Div, vr(1.5), vr(0), value.Value{}, MsgDivisionByZero},
		{"mod_rr_zero", Mod, vr(1.5), vr(0), value.Value{}, MsgModuloByZero},
		{"div_ir_zero", Div, vi(1), vr(0), value.Value{}, MsgDivisionByZero},
		// + concatenates strings; every other operator on strings is an
		// internal error (the checker rules it out statically).
		{"add_ss", Add, vs("foo"), vs("bar"), vs("foobar"), ""},
		{"sub_ss", Sub, vs("a"), vs("b"), value.Value{}, "internal: sub applied to string operands"},
		{"mul_ss", Mul, vs("a"), vs("b"), value.Value{}, "internal: mul applied to string operands"},
		{"div_ss", Div, vs("a"), vs("b"), value.Value{}, "internal: div applied to string operands"},
		{"mod_ss", Mod, vs("a"), vs("b"), value.Value{}, "internal: mod applied to string operands"},
		{"add_si", Add, vs("a"), vi(1), value.Value{}, "internal: add applied to string operands"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Arith(c.op, c.l, c.r)
			if c.errS != "" {
				if err == nil || !strings.Contains(err.Error(), c.errS) {
					t.Fatalf("err = %v, want substring %q", err, c.errS)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !value.Equal(got, c.want) || got.K != c.want.K {
				t.Errorf("got %s (kind %d), want %s (kind %d)", got, got.K, c.want, c.want.K)
			}
		})
	}
}

// TestCompareTable is the exhaustive comparison × operand-kind table.
func TestCompareTable(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		l, r value.Value
		want bool
	}{
		{"eq_ii", Eq, vi(3), vi(3), true},
		{"eq_ir", Eq, vi(3), vr(3), true}, // numeric cross-kind equality
		{"eq_rr", Eq, vr(3.5), vr(3.5), true},
		{"ne_ii", Ne, vi(3), vi(4), true},
		{"eq_ss", Eq, vs("a"), vs("a"), true},
		{"eq_si", Eq, vs("3"), vi(3), false},
		{"eq_bb", Eq, vb(true), vb(true), true},
		{"lt_ii", Lt, vi(2), vi(3), true},
		{"lt_ii_eq", Lt, vi(3), vi(3), false},
		{"le_ii", Le, vi(3), vi(3), true},
		{"gt_ii", Gt, vi(4), vi(3), true},
		{"ge_ii", Ge, vi(3), vi(3), true},
		{"lt_ir", Lt, vi(2), vr(2.5), true},
		{"gt_ri", Gt, vr(2.5), vi(2), true},
		{"lt_ss", Lt, vs("abc"), vs("abd"), true},
		{"ge_ss", Ge, vs("b"), vs("a"), true},
		{"lt_ss_prefix", Lt, vs("ab"), vs("abc"), true},
		// Int comparison must not lose precision through float64.
		{"lt_ii_big", Lt, vi(math.MaxInt64 - 1), vi(math.MaxInt64), true},
		{"gt_ii_big", Gt, vi(math.MaxInt64), vi(math.MaxInt64 - 1), true},
		// Array deep equality through Eq/Ne.
		{"eq_arr", Eq,
			value.NewArray(value.FromSlice(nil, []value.Value{vi(1), vi(2)})),
			value.NewArray(value.FromSlice(nil, []value.Value{vi(1), vi(2)})), true},
		{"ne_arr", Ne,
			value.NewArray(value.FromSlice(nil, []value.Value{vi(1)})),
			value.NewArray(value.FromSlice(nil, []value.Value{vi(2)})), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Compare(c.op, c.l, c.r); got != c.want {
				t.Errorf("Compare(%s, %s, %s) = %v, want %v", c.op, c.l, c.r, got, c.want)
			}
		})
	}
}

func TestUnary(t *testing.T) {
	if v := Neg(vi(3)); v.K != value.Int || v.Int() != -3 {
		t.Errorf("Neg(3) = %s", v)
	}
	if v := Neg(vr(1.5)); v.K != value.Real || v.Real() != -1.5 {
		t.Errorf("Neg(1.5) = %s", v)
	}
	if v := Not(vb(true)); v.Bool() {
		t.Errorf("Not(true) = %s", v)
	}
	if v := ToReal(vi(3)); v.K != value.Real || v.Real() != 3 {
		t.Errorf("ToReal(3) = %s", v)
	}
	if v := ToReal(vr(1.5)); v.K != value.Real || v.Real() != 1.5 {
		t.Errorf("ToReal(1.5) = %s", v)
	}
}

// TestStringIndexEdges covers the rune/negative-index edge cases: the
// empty string, multi-byte character boundaries, index == -len, and both
// out-of-range directions.
func TestStringIndexEdges(t *testing.T) {
	// "héllo": 5 characters, 6 bytes; é is a 2-byte character.
	const s = "héllo"
	cases := []struct {
		i    int64
		want string
		ok   bool
	}{
		{0, "h", true},
		{1, "é", true}, // multi-byte character comes out whole
		{2, "l", true},
		{4, "o", true},
		{-1, "o", true},
		{-4, "é", true},
		{-5, "h", true}, // index == -len is the first character
		{5, "", false},  // index == len is out of range
		{-6, "", false}, // below -len
	}
	for _, c := range cases {
		got, err := StringIndex(s, c.i)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("StringIndex(%q, %d) = %q, %v; want %q", s, c.i, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("StringIndex(%q, %d) succeeded, want error", s, c.i)
			continue
		}
		// The error reports the index the program wrote and the length in
		// characters, not bytes.
		if !strings.Contains(err.Error(), "out of range for string of length 5") {
			t.Errorf("StringIndex(%q, %d) err = %v", s, c.i, err)
		}
	}

	// Empty string: every index is out of range, length reported as 0.
	for _, i := range []int64{0, 1, -1} {
		_, err := StringIndex("", i)
		if err == nil || !strings.Contains(err.Error(), "out of range for string of length 0") {
			t.Errorf("StringIndex(\"\", %d) err = %v", i, err)
		}
	}

	if RuneLen("héllo") != 5 || RuneLen("") != 0 || RuneLen("日本語") != 3 {
		t.Error("RuneLen miscounts characters")
	}
	if got := Runes("日本"); len(got) != 2 || got[0] != "日" || got[1] != "本" {
		t.Errorf("Runes(日本) = %v", got)
	}
	if a := RunesArray("ab"); a.Len() != 2 || a.Get(1).Str() != "b" {
		t.Errorf("RunesArray(ab) = %v", a.Values())
	}
}

func TestArrayIndexEdges(t *testing.T) {
	a := value.FromSlice(nil, []value.Value{vi(10), vi(20), vi(30)})
	for _, c := range []struct {
		i    int64
		want int
		ok   bool
	}{
		{0, 0, true}, {2, 2, true}, {-1, 2, true}, {-3, 0, true},
		{3, 0, false}, {-4, 0, false},
	} {
		j, err := ArrayIndex(a, c.i)
		if c.ok != (err == nil) || (c.ok && j != c.want) {
			t.Errorf("ArrayIndex(len 3, %d) = %d, %v", c.i, j, err)
		}
	}
	// The error reports the original (pre-normalization) index.
	if _, err := ArrayIndex(a, -4); !strings.Contains(err.Error(), "index -4 out of range for array of length 3") {
		t.Errorf("err = %v", err)
	}

	// Index/SetIndex over values.
	av := value.NewArray(a)
	if v, err := Index(av, -1); err != nil || v.Int() != 30 {
		t.Errorf("Index(a, -1) = %v, %v", v, err)
	}
	if v, err := Index(vs("héllo"), 1); err != nil || v.Str() != "é" {
		t.Errorf("Index(s, 1) = %v, %v", v, err)
	}
	if err := SetIndex(av, -2, vi(99)); err != nil || a.Get(1).Int() != 99 {
		t.Errorf("SetIndex: %v", err)
	}
	if err := SetIndex(vs("abc"), 0, vs("x")); err == nil || err.Error() != MsgImmutableString {
		t.Errorf("SetIndex on string err = %v", err)
	}
}

func TestElementsAndLength(t *testing.T) {
	e := Elements(vs("héllo"))
	if e.Len() != 5 || e.Get(1).Str() != "é" {
		t.Errorf("Elements(héllo) = %v", e.Values())
	}
	a := value.FromSlice(nil, []value.Value{vi(1), vi(2)})
	if Elements(value.NewArray(a)) != a {
		t.Error("Elements(array) should be identity")
	}
	if Length(vs("héllo")) != 5 || Length(vs("")) != 0 || Length(value.NewArray(a)) != 2 {
		t.Error("Length")
	}
}

func TestRangeLens(t *testing.T) {
	if n, err := RangeLen(1, 5); err != nil || n != 5 {
		t.Errorf("RangeLen(1,5) = %d, %v", n, err)
	}
	if n, err := RangeLen(5, 1); err != nil || n != 0 {
		t.Errorf("RangeLen(5,1) = %d, %v", n, err)
	}
	if _, err := RangeLen(0, 1<<29); err == nil || !strings.Contains(err.Error(), "range [0 .. 536870912] too large") {
		t.Errorf("RangeLen huge err = %v", err)
	}
	if n, err := RangeLen(math.MinInt64, math.MinInt64+9); err != nil || n != 10 {
		t.Errorf("RangeLen at MinInt64 = %d, %v", n, err)
	}
	if n, err := RangeLen(1, 1<<28); err != nil || n != 1<<28 {
		t.Errorf("RangeLen at the limit = %d, %v", n, err)
	}
	for _, b := range [][2]int64{{-9e18, 9e18}, {0, math.MaxInt64}, {math.MinInt64, math.MaxInt64}} {
		if n, err := RangeLen(b[0], b[1]); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("RangeLen(%d, %d) = %d, %v; want too large", b[0], b[1], n, err)
		}
		if n, err := RangeNLen(b[0], b[1]); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("RangeNLen(%d, %d) = %d, %v; want too large", b[0], b[1], n, err)
		}
	}
	if n, err := RangeNLen(5, 2); err != nil || n != 0 {
		t.Errorf("RangeNLen(5,2) = %d, %v", n, err)
	}
	if n, err := RangeNLen(2, 5); err != nil || n != 3 {
		t.Errorf("RangeNLen(2,5) = %d, %v", n, err)
	}
	if _, err := RangeNLen(0, 1<<29); err == nil || !strings.Contains(err.Error(), "range too large (536870912 elements)") {
		t.Errorf("RangeNLen huge err = %v", err)
	}
}

func TestScalarKernels(t *testing.T) {
	if v, err := DivInt(7, 2); err != nil || v != 3 {
		t.Errorf("DivInt = %d, %v", v, err)
	}
	if _, err := DivInt(1, 0); err != ErrDivisionByZero {
		t.Errorf("DivInt zero err = %v", err)
	}
	if _, err := ModInt(1, 0); err != ErrModuloByZero {
		t.Errorf("ModInt zero err = %v", err)
	}
	if _, err := DivReal(1, 0); err != ErrDivisionByZero {
		t.Errorf("DivReal zero err = %v", err)
	}
	if v, err := ModReal(7.5, 2); err != nil || v != 1.5 {
		t.Errorf("ModReal = %g, %v", v, err)
	}
}

// TestRealToInt pins the three real → int kernels at the edges of the int
// range: Go leaves an out-of-range conversion implementation-defined, so
// each is an error, worded once.
func TestRealToInt(t *testing.T) {
	kernels := []struct {
		name string
		f    func(float64) (int64, error)
	}{{"to_int", TruncReal}, {"floor", Floor}, {"ceil", Ceil}}
	for _, k := range kernels {
		for _, c := range []struct {
			in   float64
			want [3]int64 // to_int, floor, ceil
		}{
			{2.7, [3]int64{2, 2, 3}},
			{-2.7, [3]int64{-2, -3, -2}},
			{-1 << 63, [3]int64{math.MinInt64, math.MinInt64, math.MinInt64}},
			{1<<63 - 1024, [3]int64{1<<63 - 1024, 1<<63 - 1024, 1<<63 - 1024}}, // the largest real below 2^63
		} {
			want := c.want[map[string]int{"to_int": 0, "floor": 1, "ceil": 2}[k.name]]
			if got, err := k.f(c.in); err != nil || got != want {
				t.Errorf("%s(%g) = %d, %v; want %d", k.name, c.in, got, err, want)
			}
		}
		for in, shown := range map[float64]string{
			1e30: "1e+30", -1e30: "-1e+30", 1 << 63: "9.223372036854776e+18",
			math.Inf(1): "inf", math.Inf(-1): "-inf",
		} {
			if _, err := k.f(in); err == nil || err.Error() != k.name+": real "+shown+" out of int range" {
				t.Errorf("%s(%g) err = %v", k.name, in, err)
			}
		}
		if _, err := k.f(math.NaN()); err == nil || err.Error() != k.name+": real nan out of int range" {
			t.Errorf("%s(NaN) err = %v", k.name, err)
		}
	}
}

func TestParsing(t *testing.T) {
	if v, err := ParseInt("  42 "); err != nil || v != 42 {
		t.Errorf("ParseInt = %d, %v", v, err)
	}
	if _, err := ParseInt("x"); err == nil || err.Error() != `to_int: cannot parse "x"` {
		t.Errorf("ParseInt err = %v", err)
	}
	if v, err := ParseReal("2.5"); err != nil || v != 2.5 {
		t.Errorf("ParseReal = %g, %v", v, err)
	}
	if _, err := ParseReal("x"); err == nil || err.Error() != `to_real: cannot parse "x"` {
		t.Errorf("ParseReal err = %v", err)
	}
	for _, c := range []struct {
		in   string
		v, o bool
	}{{"true", true, true}, {"YES", true, true}, {"0", false, true}, {"maybe", false, false}} {
		if v, ok := ParseBool(c.in); v != c.v || ok != c.o {
			t.Errorf("ParseBool(%q) = %v, %v", c.in, v, ok)
		}
	}
}

func TestStringKernels(t *testing.T) {
	if v, err := Substring("hello", 1, 3); err != nil || v != "el" {
		t.Errorf("Substring = %q, %v", v, err)
	}
	if _, err := Substring("hello", 2, 9); err == nil ||
		err.Error() != "substring: bounds [2, 9) out of range for string of length 5" {
		t.Errorf("Substring err = %v", err)
	}
	if _, err := Repeat("a", -1); err == nil || err.Error() != "repeat: count -1 out of range" {
		t.Errorf("Repeat err = %v", err)
	}
	if v, _ := Repeat("ab", 3); v != "ababab" {
		t.Errorf("Repeat = %q", v)
	}
	// The bytes are bounded, not only the count, and sized without
	// multiplying past an int64.
	if n, err := RepeatLen("abc", 1<<24); err != nil || n != 3<<24 {
		t.Errorf("RepeatLen = %d, %v", n, err)
	}
	if n, err := RepeatLen("", 1<<24); err != nil || n != 0 {
		t.Errorf("RepeatLen of nothing = %d, %v", n, err)
	}
	if _, err := Repeat(strings.Repeat("x", 1<<10), 1<<20+1); err == nil ||
		err.Error() != "repeat: 1048577 copies of a 1024-byte string is too large" {
		t.Errorf("Repeat size err = %v", err)
	}
	if Reverse("héllo") != "olléh" {
		t.Error("Reverse must reverse characters, not bytes")
	}
	if Find("héllo", "llo") != 3 { // byte index (é is 2 bytes)
		t.Error("Find")
	}
	if got := Split("a b  c", ""); len(got) != 3 {
		t.Errorf("Split fields = %v", got)
	}
}

func TestFormatting(t *testing.T) {
	for f, want := range map[float64]string{
		3:            "3.0",
		1.5:          "1.5",
		math.Inf(1):  "inf",
		math.Inf(-1): "-inf",
		math.NaN():   "nan",
		1e21:         "1e+21",
	} {
		if got := FormatReal(f); got != want {
			t.Errorf("FormatReal(%g) = %q, want %q", f, got, want)
		}
	}
	if FormatInt(-7) != "-7" || FormatBool(true) != "true" || QuoteString(`a"b`) != `"a\"b"` {
		t.Error("scalar formatting")
	}
}

func TestAt(t *testing.T) {
	err := At(ErrDivisionByZero, "test.ttr:3:5")
	if err.Error() != "test.ttr:3:5: runtime error: division by zero" {
		t.Errorf("At = %q", err.Error())
	}
	// Non-sem errors pass through unchanged.
	plain := &value.RuntimeError{Msg: "x", Pos: "p"}
	if At(plain, "q") != error(plain) {
		t.Error("At must not rewrap non-sem errors")
	}
}

// TestKernelsMirrorArith holds the typed kernels the VM inlines to Arith
// and Compare, the semantics they are columns of: wrapping overflow, the
// two int divisions Go defines specially, signed zeros, infinities, and a
// NaN on either side of every comparison. That Le is exactly not-Gt and Ge
// not-Lt even then is what licenses the optimizer to fold a branch's sense
// into a compare-jump by negating the operator, and a constant's side by
// mirroring it.
func TestKernelsMirrorArith(t *testing.T) {
	ints := []int64{0, 1, -1, 2, 7, -7, 1000003, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	reals := []float64{0, negZero, 1.5, -2.25, 3, 1e308, -1e308, 5e-324, inf, -inf, nan}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }

	for _, a := range ints {
		for _, b := range ints {
			for op := Add; op <= Mod; op++ {
				want, err := Arith(op, vi(a), vi(b))
				if (err != nil) != (b == 0 && op >= Div) {
					t.Fatalf("Arith(%s, %d, %d) error = %v", op, a, b, err)
				}
				if err != nil {
					var kerr error
					if op == Div {
						_, kerr = DivInt(a, b)
					} else {
						_, kerr = ModInt(a, b)
					}
					if kerr != err {
						t.Errorf("%s kernel of (%d, %d) raises %v, Arith %v", op, a, b, kerr, err)
					}
					continue
				}
				if got := ArithInt(op, a, b); want.K != value.Int || got != want.Int() {
					t.Errorf("ArithInt(%s, %d, %d) = %d, Arith = %s", op, a, b, got, want)
				}
			}
			for op := Eq; op <= Ge; op++ {
				if got, want := CompareInt(op, a, b), Compare(op, vi(a), vi(b)); got != want {
					t.Errorf("CompareInt(%s, %d, %d) = %v, Compare = %v", op, a, b, got, want)
				}
			}
		}
	}
	if got := ArithInt(Div, math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("MinInt64 / -1 = %d, want it to wrap to MinInt64", got)
	}
	if got := ArithInt(Mod, math.MinInt64, -1); got != 0 {
		t.Errorf("MinInt64 %% -1 = %d, want 0", got)
	}

	for _, a := range reals {
		for _, b := range reals {
			for op := Add; op <= Mod; op++ {
				want, err := Arith(op, vr(a), vr(b))
				if (err != nil) != (b == 0 && op >= Div) {
					t.Fatalf("Arith(%s, %g, %g) error = %v", op, a, b, err)
				}
				var got float64
				var kerr error
				switch op {
				case Div:
					got, kerr = DivReal(a, b)
				case Mod:
					got, kerr = ModReal(a, b)
				default:
					got = ArithReal(op, a, b)
				}
				if kerr != err {
					t.Errorf("%s kernel of (%g, %g) raises %v, Arith %v", op, a, b, kerr, err)
				}
				if err != nil {
					continue
				}
				if want.K != value.Real || !same(got, want.Real()) {
					t.Errorf("%s kernel of (%g, %g) = %g, Arith = %s", op, a, b, got, want)
				}
				if op == Div && !same(ArithReal(Div, a, b), want.Real()) {
					t.Errorf("ArithReal(div, %g, %g) = %g, Arith = %s", a, b, ArithReal(Div, a, b), want)
				}
			}
			for op := Eq; op <= Ge; op++ {
				if got, want := CompareReal(op, a, b), Compare(op, vr(a), vr(b)); got != want {
					t.Errorf("CompareReal(%s, %g, %g) = %v, Compare = %v", op, a, b, got, want)
				}
			}
			// Negating or mirroring the operator is exact, NaN included.
			for _, p := range [][2]Op{{Eq, Ne}, {Lt, Ge}, {Le, Gt}} {
				if CompareReal(p[0], a, b) == CompareReal(p[1], a, b) {
					t.Errorf("%s and %s agree on (%g, %g): negation is not exact", p[0], p[1], a, b)
				}
			}
			for _, p := range [][2]Op{{Eq, Eq}, {Ne, Ne}, {Lt, Gt}, {Le, Ge}} {
				if CompareReal(p[0], a, b) != CompareReal(p[1], b, a) {
					t.Errorf("%s(%g, %g) differs from %s(%g, %g): mirroring is not exact", p[0], a, b, p[1], b, a)
				}
			}
		}
	}
}
