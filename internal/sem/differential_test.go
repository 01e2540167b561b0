package sem_test

// The cross-backend differential harness: generated operand/op tuples are
// driven through the tree-walking interpreter, the VM at O0 and O2, and
// the compiled runtime's kernels (gort), asserting byte-identical results
// and error messages. With internal/sem as the single semantics
// implementation this is the executable proof that the backends cannot
// drift: a divergence here means a backend stopped calling sem.
//
// The harness lives in package sem_test (not sem) because it imports the
// backends, which themselves import sem.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/gort"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/sem"
	"repro/internal/value"
	"repro/internal/vm"
)

// backendResult is one backend's observable outcome for a program: its
// full output plus the error message, if any.
type backendResult struct {
	out string
	err string
}

// runInterp executes src on the tree-walking interpreter.
func runInterp(t *testing.T, src string) backendResult {
	t.Helper()
	prog, err := parser.Parse("diff.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	var out bytes.Buffer
	rErr := interp.New(prog, rt.Config{Stdout: &out}).Run()
	r := backendResult{out: out.String()}
	if rErr != nil {
		r.err = rErr.Error()
	}
	return r
}

// runVMAt executes src on the bytecode VM at the given optimization level.
func runVMAt(t *testing.T, src string, level int) backendResult {
	t.Helper()
	prog, err := parser.Parse("diff.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	// The whole corpus doubles as the IR verifier's: Compile's output and
	// every optimizer phase's must keep the typing rules.
	if err := bytecode.VerifyOptimize(bc, level); err != nil {
		t.Fatalf("-O%d: %v\n%s", level, err, src)
	}
	var out bytes.Buffer
	rErr := vm.New(bc, rt.Config{Stdout: &out}).Run()
	r := backendResult{out: out.String()}
	if rErr != nil {
		r.err = rErr.Error()
	}
	return r
}

// runAllBackends runs src on interp, VM-O0 and VM-O2 and asserts they
// agree byte-for-byte on output and on the error message (positions
// included — every backend reports the same source position). Returns the
// agreed result.
func runAllBackends(t *testing.T, src string) backendResult {
	t.Helper()
	ref := runInterp(t, src)
	for _, lv := range []struct {
		name  string
		level int
	}{{"vm-O0", bytecode.O0}, {"vm-O2", bytecode.O2}} {
		got := runVMAt(t, src, lv.level)
		if got.out != ref.out || got.err != ref.err {
			t.Fatalf("%s diverges from interp:\ninterp: out=%q err=%q\n%s:  out=%q err=%q\nsource:\n%s",
				lv.name, ref.out, ref.err, lv.name, got.out, got.err, src)
		}
	}
	return ref
}

// catchGort runs f, capturing a gort runtime panic as its message.
func catchGort(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(gort.Err); ok {
				msg = e.Msg
				return
			}
			panic(r)
		}
	}()
	f()
	return ""
}

// intLits are the int operand literals the generator combines.
var intLits = []string{"0", "1", "-1", "7", "-7", "3", "100", "-100"}

// realLits are the real operand literals.
var realLits = []string{"0.0", "1.5", "-2.25", "3.0", "-0.5", "100.25"}

// strLits are the string operand literals (multi-byte included).
var strLits = []string{`""`, `"a"`, `"abc"`, `"héllo"`, `"日本"`}

var binOps = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

// TestDifferentialBinaryOps drives every binary operator over generated
// int, real, mixed and string operand tuples through all three
// value-level execution paths. Half the cases take their operands from
// variables and half from literals, so the O2 run exercises both the
// register-register instructions and the constant-operand ones fusion
// makes of a literal.
func TestDifferentialBinaryOps(t *testing.T) {
	var progs []string
	add := func(l, op, r string) {
		// Literal form: a constant operand fuses into the instruction at O2.
		progs = append(progs, fmt.Sprintf("def main():\n    print(%s %s %s)\n", l, op, r))
		// Variable form: evaluated at run time on every backend.
		progs = append(progs, fmt.Sprintf("def main():\n    x = %s\n    y = %s\n    print(x %s y)\n", l, r, op))
	}
	for _, op := range binOps {
		for _, l := range intLits {
			for _, r := range intLits {
				add(l, op, r)
			}
		}
		for _, l := range realLits {
			for _, r := range realLits {
				add(l, op, r)
			}
		}
		// Mixed int/real (widening) — one diagonal each way.
		for i, l := range intLits[:len(realLits)] {
			add(l, op, realLits[i])
			add(realLits[i], op, intLits[i])
		}
		// Strings support + and the comparisons.
		if op != "-" && op != "*" && op != "/" && op != "%" {
			for _, l := range strLits {
				for _, r := range strLits {
					add(l, op, r)
				}
			}
		}
	}
	t.Logf("driving %d generated programs through 3 execution paths", len(progs))
	for _, src := range progs {
		runAllBackends(t, src)
	}
}

// TestDifferentialGortArith checks the compiled runtime's arithmetic
// kernels against sem.Arith on the same operand grid: identical values
// and identical error wording (gort reports sem's canonical messages).
func TestDifferentialGortArith(t *testing.T) {
	ints := []int64{0, 1, -1, 7, -7, 3, 100}
	for _, a := range ints {
		for _, b := range ints {
			want, wantErr := sem.Arith(sem.Div, value.NewInt(a), value.NewInt(b))
			var got int64
			msg := catchGort(func() { got = gort.DivInt(a, b) })
			checkGortInt(t, "DivInt", a, b, want, wantErr, got, msg)

			want, wantErr = sem.Arith(sem.Mod, value.NewInt(a), value.NewInt(b))
			msg = catchGort(func() { got = gort.ModInt(a, b) })
			checkGortInt(t, "ModInt", a, b, want, wantErr, got, msg)
		}
	}
	reals := []float64{0, 1.5, -2.25, 3, 100.25}
	for _, a := range reals {
		for _, b := range reals {
			want, wantErr := sem.Arith(sem.Div, value.NewReal(a), value.NewReal(b))
			var got float64
			msg := catchGort(func() { got = gort.DivReal(a, b) })
			checkGortReal(t, "DivReal", a, b, want, wantErr, got, msg)

			want, wantErr = sem.Arith(sem.Mod, value.NewReal(a), value.NewReal(b))
			msg = catchGort(func() { got = gort.ModReal(a, b) })
			checkGortReal(t, "ModReal", a, b, want, wantErr, got, msg)
		}
	}
}

func checkGortInt(t *testing.T, name string, a, b int64, want value.Value, wantErr error, got int64, msg string) {
	t.Helper()
	if wantErr != nil {
		if msg != wantErr.Error() {
			t.Errorf("%s(%d, %d) panic = %q, sem error = %q", name, a, b, msg, wantErr.Error())
		}
		return
	}
	if msg != "" {
		t.Errorf("%s(%d, %d) panicked %q, sem succeeded", name, a, b, msg)
		return
	}
	if got != want.Int() {
		t.Errorf("%s(%d, %d) = %d, sem = %d", name, a, b, got, want.Int())
	}
}

func checkGortReal(t *testing.T, name string, a, b float64, want value.Value, wantErr error, got float64, msg string) {
	t.Helper()
	if wantErr != nil {
		if msg != wantErr.Error() {
			t.Errorf("%s(%g, %g) panic = %q, sem error = %q", name, a, b, msg, wantErr.Error())
		}
		return
	}
	if msg != "" {
		t.Errorf("%s(%g, %g) panicked %q, sem succeeded", name, a, b, msg)
		return
	}
	if got != want.Real() {
		t.Errorf("%s(%g, %g) = %g, sem = %g", name, a, b, got, want.Real())
	}
}

// TestDifferentialGortStrings checks the compiled runtime's string and
// indexing surface against the sem kernels, including error wording.
func TestDifferentialGortStrings(t *testing.T) {
	strs := []string{"", "a", "abc", "héllo", "日本"}
	idxs := []int64{0, 1, 2, 4, 5, -1, -2, -5, -6, 100}
	for _, s := range strs {
		if gort.StrLen(s) != int64(sem.RuneLen(s)) {
			t.Errorf("StrLen(%q) = %d, sem = %d", s, gort.StrLen(s), sem.RuneLen(s))
		}
		for _, i := range idxs {
			want, wantErr := sem.StringIndex(s, i)
			var got string
			msg := catchGort(func() { got = gort.StrIndex(s, i) })
			if wantErr != nil {
				if msg != wantErr.Error() {
					t.Errorf("StrIndex(%q, %d) panic = %q, sem error = %q", s, i, msg, wantErr.Error())
				}
				continue
			}
			if msg != "" || got != want {
				t.Errorf("StrIndex(%q, %d) = %q (panic %q), sem = %q", s, i, got, msg, want)
			}
		}
	}

	// Array bounds errors through gort's generic arrays.
	a := gort.NewArray[int64](10, 20, 30)
	for _, i := range idxs {
		semA := value.FromSlice(nil, []value.Value{
			value.NewInt(10), value.NewInt(20), value.NewInt(30)})
		j, wantErr := sem.ArrayIndex(semA, i)
		var got int64
		msg := catchGort(func() { got = a.Get(i) })
		if wantErr != nil {
			if msg != wantErr.Error() {
				t.Errorf("Array.Get(%d) panic = %q, sem error = %q", i, msg, wantErr.Error())
			}
			continue
		}
		if msg != "" || got != semA.Get(j).Int() {
			t.Errorf("Array.Get(%d) = %d (panic %q), sem = %d", i, got, msg, semA.Get(j).Int())
		}
	}

	// Range builtins: the literal and builtin wordings differ, and each
	// backend must use the right one.
	if msg := catchGort(func() { gort.Range(0, 1<<29) }); !strings.Contains(msg, "range [0 .. 536870912] too large") {
		t.Errorf("Range too-large panic = %q", msg)
	}
	if msg := catchGort(func() { gort.RangeN(0, 1<<29) }); !strings.Contains(msg, "range too large (536870912 elements)") {
		t.Errorf("RangeN too-large panic = %q", msg)
	}
	const lo, hi = -9000000000000000000, 9000000000000000000
	if msg := catchGort(func() { gort.Range(lo, hi) }); !strings.Contains(msg, "range [-9000000000000000000 .. 9000000000000000000] too large") {
		t.Errorf("Range span-overflow panic = %q", msg)
	}
	if msg := catchGort(func() { gort.RangeN(lo, hi) }); !strings.Contains(msg, "range too large (18000000000000000000 elements)") {
		t.Errorf("RangeN span-overflow panic = %q", msg)
	}
}

// TestDifferentialErrors drives the canonical runtime errors through all
// three value-level paths, asserting identical positioned messages.
func TestDifferentialErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div_zero_var", "def main():\n    x = 0\n    print(1 / x)\n", "division by zero"},
		{"mod_zero_var", "def main():\n    x = 0\n    print(1 % x)\n", "modulo by zero"},
		{"real_div_zero", "def main():\n    x = 0.0\n    print(1.5 / x)\n", "division by zero"},
		{"div_zero_lit", "def main():\n    print(1 / 0)\n", "division by zero"},
		{"str_index_oob", "def main():\n    s = \"héllo\"\n    i = 5\n    print(s[i])\n", "index 5 out of range for string of length 5"},
		{"str_index_below", "def main():\n    s = \"ab\"\n    i = -3\n    print(s[i])\n", "index -3 out of range for string of length 2"},
		{"arr_index_oob", "def main():\n    a = [1, 2]\n    i = 2\n    print(a[i])\n", "index 2 out of range for array of length 2"},
		{"str_immutable", "def main():\n    s = \"ab\"\n    s[0] = \"x\"\n    print(s)\n", "strings are immutable"},
		{"range_too_large", "def main():\n    n = 1073741824\n    for i in [1 .. n]:\n        print(i)\n", "range [1 .. 1073741824] too large"},
		{"rangen_too_large", "def main():\n    n = 1073741824\n    for i in range(n):\n        print(i)\n", "range too large (1073741824 elements)"},
		// Spans that do not fit an int64: a wrapping subtraction would read
		// them as empty ranges.
		{"range_span_overflow", "def main():\n    lo = -9000000000000000000\n    hi = 9000000000000000000\n    print(len([lo .. hi]))\n", "range [-9000000000000000000 .. 9000000000000000000] too large"},
		{"rangen_span_overflow", "def main():\n    lo = -9000000000000000000\n    hi = 9000000000000000000\n    print(len(range(lo, hi)))\n", "range too large (18000000000000000000 elements)"},
		{"range_count_overflow", "def main():\n    hi = 9223372036854775807\n    print(len([0 .. hi]))\n", "range [0 .. 9223372036854775807] too large"},
		{"to_int_bad", "def main():\n    s = \"xyz\"\n    print(to_int(s))\n", `to_int: cannot parse "xyz"`},
		{"substring_oob", "def main():\n    s = \"hello\"\n    print(substring(s, 2, 9))\n", "substring: bounds [2, 9) out of range for string of length 5"},
		// A real that does not fit an int: Go leaves the conversion
		// implementation-defined, Tetra makes it an error.
		{"to_int_out_of_range", "def main():\n    print(to_int(1.0e30))\n", "diff.ttr:2:11: runtime error: to_int: real 1e+30 out of int range"},
		{"floor_out_of_range", "def main():\n    print(floor(1.0e30))\n", "diff.ttr:2:11: runtime error: floor: real 1e+30 out of int range"},
		{"ceil_out_of_range", "def main():\n    print(ceil(-1.0e30))\n", "diff.ttr:2:11: runtime error: ceil: real -1e+30 out of int range"},
		{"to_int_nan", "def main():\n    print(to_int(sqrt(0.0 - 1.0)))\n", "diff.ttr:2:11: runtime error: to_int: real nan out of int range"},
		{"repeat_too_large", "def main():\n    s = repeat(\"ab\", 1024)\n    print(len(repeat(s, 1048576)))\n", "diff.ttr:3:15: runtime error: repeat: 1048576 copies of a 2048-byte string is too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := runAllBackends(t, c.src)
			if !strings.Contains(r.err, c.want) {
				t.Errorf("agreed error %q does not contain %q", r.err, c.want)
			}
		})
	}
}

// TestDifferentialUnassigned pins what a variable holds when no assignment
// to it has run: the zero value of its static type, on every backend. It
// used to hold a kindless none on the engines — `x + 1` printed 1.0,
// `s + "b"` was an internal error and `a[0]` a nil dereference in Go.
func TestDifferentialUnassigned(t *testing.T) {
	const untaken = "def main():\n    c = 1\n    if c > 2:\n        x = 5\n        r = 2.5\n        a = [1, 2]\n        s = \"a\"\n        b = true\n        m = [[1]]\n    print(%s)\n"
	cases := []struct{ name, src, out, err string }{
		{"int_arith", fmt.Sprintf(untaken, "x + 1"), "1\n", ""},
		{"int", fmt.Sprintf(untaken, "x"), "0\n", ""},
		{"real", fmt.Sprintf(untaken, "r * 2.0"), "0.0\n", ""},
		{"string_concat", fmt.Sprintf(untaken, `s + "b"`), "b\n", ""},
		{"bool", fmt.Sprintf(untaken, "not b"), "true\n", ""},
		{"array", fmt.Sprintf(untaken, "a, len(a), m"), "[]0[]\n", ""},
		{"array_index", fmt.Sprintf(untaken, "a[0]"), "", "diff.ttr:10:11: runtime error: index 0 out of range for array of length 0"},
		{"array_store", "def main():\n    c = 1\n    if c > 2:\n        a = [1.5]\n    a[0] = 2\n", "", "diff.ttr:5:5: runtime error: index 0 out of range for array of length 0"},
		{"for_over_nothing", "def main():\n    for i in range(0):\n        pass\n    for w in \"\":\n        pass\n    print(i + 1, w + \".\")\n", "1.\n", ""},
		{"parallel_for_leaves_its_variable", "def main():\n    parallel for i in [4, 5]:\n        pass\n    print(i)\n", "0\n", ""},
		{"while_not_entered", "def f(n int) int:\n    while n > 0:\n        last = n\n        n -= 1\n    return last * 2\n\ndef main():\n    print(f(0), f(3))\n", "02\n", ""},
		{"fresh_array_per_call", "def f(grow bool) [int]:\n    if false:\n        a = [0]\n    if grow:\n        push(a, 7)\n    return a\n\ndef main():\n    print(f(true), f(false))\n", "[7][]\n", ""},
		{"shared_function", "def main():\n    if false:\n        x = 5\n        a = [1]\n    parallel:\n        x += 1\n        push(a, 2)\n    print(x, a)\n", "1[2]\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if r := runAllBackends(t, c.src); r.out != c.out || r.err != c.err {
				t.Errorf("out=%q err=%q, want out=%q err=%q\n%s", r.out, r.err, c.out, c.err, c.src)
			}
		})
	}
	// The compiled runtime starts such an array variable at MakeArray(0).
	want := sem.ErrArrayIndex(0, 0).Error()
	if msg := catchGort(func() { gort.MakeArray[int64](0).Get(0) }); msg != want {
		t.Errorf("gort empty-array Get(0) panic = %q, want %q", msg, want)
	}
	if msg := catchGort(func() { gort.MakeArray[float64](0).Set(0, 2) }); msg != want {
		t.Errorf("gort empty-array Set(0) panic = %q, want %q", msg, want)
	}
}

// TestDifferentialSpawnedCalls runs spawned arms that are nothing but a
// call without arguments, in a function that has locals: such an arm has no
// temporaries of its own, and its call still names an (empty) argument
// block above the function's slots, so the VM's window must reach that far
// even then. The arms of a row print the same bytes, so their order does
// not show.
func TestDifferentialSpawnedCalls(t *testing.T) {
	const prog = "def mark():\n    print(\"w\")\n\ndef main():\n    n = 2\n    print(n)\n%s"
	cases := []struct{ name, body, out string }{
		{"parallel_call", "    parallel:\n        mark()\n        mark()\n", "2\nw\nw\n"},
		{"parallel_print", "    parallel:\n        print()\n        print()\n", "2\n\n\n"},
		{"background_call", "    background:\n        mark()\n", "2\nw\n"},
		{"background_print", "    background:\n        print()\n", "2\n\n"},
		{"parallel_for_call", "    parallel for i in range(n):\n        mark()\n", "2\nw\nw\n"},
		{"parallel_for_print", "    parallel for i in range(n):\n        print()\n", "2\n\n\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(prog, c.body)
			if r := runAllBackends(t, src); r.out != c.out || r.err != "" {
				t.Errorf("out=%q err=%q, want out=%q\n%s", r.out, r.err, c.out, src)
			}
		})
	}
}

// TestDifferentialParallelFor runs a deterministic parallel-for workload
// (disjoint writes) through interp and both VM levels; under `go test
// -race` this doubles as the proof that the shared sem kernels are safe
// to call from concurrent Tetra threads.
func TestDifferentialParallelFor(t *testing.T) {
	src := `def main():
    s = "héllo wörld"
    n = len(s)
    out = range(n)
    chars = range(n)
    parallel for i in range(n):
        out[i] = i * i % 7
        chars[i] = len(s[i])
    total = 0
    ok = 0
    for v in out:
        total += v
    for c in chars:
        ok += c
    print(total, " ", ok)
`
	r := runAllBackends(t, src)
	if r.err != "" {
		t.Fatalf("run error: %s", r.err)
	}
	want := 0
	for i := 0; i < 11; i++ {
		want += i * i % 7
	}
	if got := fmt.Sprintf("%d 11\n", want); r.out != got {
		t.Errorf("out = %q, want %q", r.out, got)
	}
}
