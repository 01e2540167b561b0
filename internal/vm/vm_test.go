package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/value"
)

func compileBoth(t testing.TB, src string) (*ast.Program, *bytecode.Program) {
	t.Helper()
	prog, err := parser.Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("bytecode: %v\n%s", err, src)
	}
	// Every program any test here compiles is held to the IR's rules.
	if err := bytecode.Verify(bc); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return prog, bc
}

// optimize optimizes bc at level with the verifier run after every phase.
func optimize(t testing.TB, bc *bytecode.Program, level int) *bytecode.Program {
	t.Helper()
	if err := bytecode.VerifyOptimize(bc, level); err != nil {
		t.Fatalf("-O%d: %v\n%s", level, err, bytecode.DisassembleProgram(bc))
	}
	return bc
}

// runVM executes src on the VM, returning output and error.
func runVM(t *testing.T, src, input string) (string, error) {
	t.Helper()
	_, bc := compileBoth(t, src)
	var out bytes.Buffer
	m := New(bc, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := m.Run()
	return out.String(), err
}

// runInterp executes src on the tree-walker for differential comparison.
func runInterp(t *testing.T, src, input string) (string, error) {
	t.Helper()
	prog, _ := compileBoth(t, src)
	var out bytes.Buffer
	in := interp.New(prog, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := in.Run()
	return out.String(), err
}

// differential asserts both backends produce identical output (and agree
// on success).
func differential(t *testing.T, src, input string) string {
	t.Helper()
	iOut, iErr := runInterp(t, src, input)
	vOut, vErr := runVM(t, src, input)
	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("error disagreement: interp=%v vm=%v\n%s", iErr, vErr, src)
	}
	if iOut != vOut {
		t.Fatalf("output disagreement:\ninterp: %q\nvm:     %q\nsource:\n%s", iOut, vOut, src)
	}
	return vOut
}

// differentialCorpus is a broad program corpus shared by the
// interp-vs-VM differential test and the optimizer differential test.
var differentialCorpus = []struct{ name, src, input string }{
	{"arith", "def main():\n    print(2 + 3 * 4 - 5 / 2 % 3)\n", ""},
	{"real_arith", "def main():\n    print(1.5 * 2 + 1 / 4.0 - 0.75)\n", ""},
	{"mixed_div", "def main():\n    print(7 / 2, \" \", 7.0 / 2, \" \", 7 % 4, \" \", 7.5 % 2)\n", ""},
	{"strings", "def main():\n    s = \"ab\" + \"cd\"\n    print(s, s[1], len(s), s == \"abcd\", s < \"b\")\n", ""},
	{"bools", "def main():\n    print(true and not false or 1 > 2)\n", ""},
	{"compare_all", "def main():\n    print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, 5 == 5, 6 != 6)\n", ""},
	{"unary", "def main():\n    print(-5, - -5, -2.5, not true)\n", ""},
	{"vars", "def main():\n    x = 1\n    y = x + 2\n    x = y * x\n    print(x, y)\n", ""},
	{"aug", "def main():\n    x = 10\n    x += 1\n    x -= 2\n    x *= 3\n    x /= 2\n    x %= 6\n    print(x)\n", ""},
	{"if", "def main():\n    x = 5\n    if x > 3:\n        print(\"big\")\n    else:\n        print(\"small\")\n", ""},
	{"elif", "def f(x int) string:\n    if x == 1:\n        return \"a\"\n    elif x == 2:\n        return \"b\"\n    else:\n        return \"c\"\n\ndef main():\n    print(f(1), f(2), f(3))\n", ""},
	{"while", "def main():\n    i = 0\n    s = 0\n    while i < 100:\n        s += i\n        i += 1\n    print(s)\n", ""},
	{"break_continue", "def main():\n    s = 0\n    i = 0\n    while true:\n        i += 1\n        if i > 20:\n            break\n        if i % 3 == 0:\n            continue\n        s += i\n    print(s)\n", ""},
	{"for_array", "def main():\n    s = 0\n    for x in [5, 10, 15]:\n        s += x\n    print(s)\n", ""},
	{"for_range", "def main():\n    s = 0\n    for x in [1 .. 50]:\n        s += x\n    print(s)\n", ""},
	{"for_string", "def main():\n    for c in \"xyz\":\n        print(c)\n", ""},
	{"for_break", "def main():\n    for x in [1 .. 10]:\n        if x > 3:\n            break\n        print(x)\n", ""},
	{"for_continue", "def main():\n    for x in [1 .. 6]:\n        if x % 2 == 0:\n            continue\n        print(x)\n", ""},
	{"nested_for", "def main():\n    for i in [1 .. 3]:\n        for j in [1 .. 3]:\n            if i == j:\n                continue\n            print(i, j)\n", ""},
	{"arrays", "def main():\n    a = [1, 2, 3]\n    a[1] = 20\n    a[2] += 5\n    print(a, len(a))\n", ""},
	{"matrix", "def main():\n    m = [[1, 2], [3, 4]]\n    m[0][1] = 9\n    print(m[0][1] + m[1][0])\n", ""},
	{"array_eq", "def main():\n    print([1, 2] == [1, 2], [1] != [2])\n", ""},
	{"recursion", "def fib(n int) int:\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n\ndef main():\n    print(fib(12))\n", ""},
	{"mutual", "def even(n int) bool:\n    if n == 0:\n        return true\n    return odd(n - 1)\n\ndef odd(n int) bool:\n    if n == 0:\n        return false\n    return even(n - 1)\n\ndef main():\n    print(even(8), odd(8))\n", ""},
	{"void_call", "def show(x int):\n    print(x)\n\ndef main():\n    show(7)\n", ""},
	{"fall_off", "def f() int:\n    pass\n\ndef main():\n    print(f())\n", ""},
	{"widening", "def h(x real) real:\n    return x / 2\n\ndef main():\n    r = 1.5\n    r = 3\n    print(r, h(7))\n", ""},
	{"widen_array", "def main():\n    a = [1.0, 2]\n    a[0] = 5\n    print(a)\n", ""},
	{"widen_return", "def f() real:\n    return 3\n\ndef main():\n    print(f())\n", ""},
	{"short_circuit", "def boom() bool:\n    print(\"x\")\n    return true\n\ndef main():\n    a = false and boom()\n    b = true or boom()\n    print(a, b)\n", ""},
	{"builtins", "def main():\n    print(sqrt(25), abs(-2), min(3, 1), max(2.5, 9), floor(3.7), ceil(3.2))\n", ""},
	{"string_builtins", "def main():\n    print(to_upper(\"ab\"), find(\"hello\", \"ll\"), substring(\"abcdef\", 1, 4))\n", ""},
	{"sort_join", "def main():\n    print(sort([3, 1, 2]), join([\"a\", \"b\"], \"-\"))\n", ""},
	{"push", "def main():\n    a = [1]\n    push(a, 2)\n    print(a)\n", ""},
	{"range_builtin", "def main():\n    print(range(3), range(1, 4))\n", ""},
	{"io", "def main():\n    n = read_int()\n    print(n * n)\n", "12\n"},
	{"figure1", "def fact(x int) int:\n    if x == 0:\n        return 1\n    else:\n        return x * fact(x - 1)\n\ndef main():\n    n = read_int()\n    print(n, \"! = \", fact(n))\n", "10\n"},
	{"parallel_sum", `def sumr(nums [int], a int, b int) int:
    total = 0
    i = a
    while i <= b:
        total += nums[i]
        i += 1
    return total

def sum(nums [int]) int:
    mid = len(nums) / 2
    parallel:
        a = sumr(nums, 0, mid - 1)
        b = sumr(nums, mid, len(nums) - 1)
    return a + b

def main():
    print(sum([1 .. 100]))
`, ""},
	{"parallel_max", `def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max([18, 32, 96, 48, 60]))
`, ""},
	{"parallel_disjoint", `def sq(x int) int:
    return x * x

def main():
    n = 30
    out = range(n)
    parallel for i in range(n):
        out[i] = sq(i)
    print(out[29])
`, ""},
	{"background", "def main():\n    background:\n        print(\"bg\")\n    sleep(1)\n", ""},
	{"lock_counter", `def main():
    count = 0
    parallel for i in range(20):
        lock c:
            count += 1
    print(count)
`, ""},
	{"nested_parallel", `def inner(k int) int:
    parallel:
        a = k + 1
        b = k + 2
    return a + b

def main():
    parallel:
        x = inner(0)
        y = inner(10)
    print(x + y)
`, ""},
}

// TestDifferentialCorpus runs the corpus through both backends.
func TestDifferentialCorpus(t *testing.T) {
	for _, c := range differentialCorpus {
		t.Run(c.name, func(t *testing.T) {
			differential(t, c.src, c.input)
		})
	}
}

func TestRuntimeErrorsVM(t *testing.T) {
	cases := []struct{ name, src, substr string }{
		{"div_zero", "def main():\n    x = 0\n    print(1 / x)\n", "division by zero"},
		{"mod_zero", "def main():\n    x = 0\n    print(1 % x)\n", "modulo by zero"},
		{"index_oob", "def main():\n    a = [1]\n    print(a[3])\n", "out of range"},
		{"store_oob", "def main():\n    a = [1]\n    a[3] = 0\n", "out of range"},
		{"string_oob", "def main():\n    s = \"ab\"\n    print(s[5])\n", "out of range"},
		{"string_immutable", "def main():\n    s = \"ab\"\n    s[0] = \"x\"\n", "immutable"},
		{"stack", "def f(n int) int:\n    return f(n + 1)\n\ndef main():\n    print(f(0))\n", "call stack exhausted"},
		{"builtin_err", "def main():\n    print(substring(\"ab\", 0, 9))\n", "substring"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := runVM(t, c.src, "")
			if err == nil || !strings.Contains(err.Error(), c.substr) {
				t.Errorf("err = %v, want substring %q", err, c.substr)
			}
		})
	}
}

func TestErrorInVMThreadAborts(t *testing.T) {
	src := `def main():
    a = [1]
    parallel for i in [5, 6]:
        a[i] = 0
    print("after")
`
	_, err := runVM(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestVMCallAPI(t *testing.T) {
	_, bc := compileBoth(t, "def double(x int) int:\n    return x * 2\n")
	m := New(bc, rt.Config{Stdout: &bytes.Buffer{}})
	v, err := m.Call("double", value.NewInt(21))
	if err != nil || v.Int() != 42 {
		t.Errorf("double = %v, %v", v, err)
	}
	if _, err := m.Call("nope"); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := m.Call("double"); err == nil {
		t.Error("bad arity should fail")
	}
}

func TestVMNoMain(t *testing.T) {
	_, bc := compileBoth(t, "def f():\n    pass\n")
	m := New(bc, rt.Config{Stdout: &bytes.Buffer{}})
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Errorf("err = %v", err)
	}
}

// --- randomized differential property ---

// exprGen generates random well-typed integer expressions as source text,
// used to cross-check interp, VM and a direct Go evaluation.
type exprGen struct {
	r     *rand.Rand
	depth int
}

// gen returns (source, value) where value is computed in Go with the same
// semantics (truncated division; division by zero avoided by construction).
func (g *exprGen) gen() (string, int64) {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 5 || g.r.Intn(3) == 0 {
		v := int64(g.r.Intn(200) - 100)
		if v < 0 {
			// Negative literals print as unary minus; parenthesize to stay
			// composable inside any context.
			return fmt.Sprintf("(0 - %d)", -v), v
		}
		return fmt.Sprintf("%d", v), v
	}
	ls, lv := g.gen()
	rs, rv := g.gen()
	switch g.r.Intn(5) {
	case 0:
		return "(" + ls + " + " + rs + ")", lv + rv
	case 1:
		return "(" + ls + " - " + rs + ")", lv - rv
	case 2:
		return "(" + ls + " * " + rs + ")", lv * rv
	case 3:
		if rv == 0 {
			return "(" + ls + " + " + rs + ")", lv + rv
		}
		return "(" + ls + " / " + rs + ")", lv / rv
	default:
		if rv == 0 {
			return "(" + ls + " - " + rs + ")", lv - rv
		}
		return "(" + ls + " % " + rs + ")", lv % rv
	}
}

func TestRandomExpressionDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		g := &exprGen{r: r}
		src, want := g.gen()
		program := "def main():\n    print(" + src + ")\n"
		got := differential(t, program, "")
		if got != fmt.Sprintf("%d\n", want) {
			t.Fatalf("expression %s = %q, Go says %d", src, got, want)
		}
	}
}

// randomProgram generates a small imperative program: loops, conditionals
// and an accumulator.
func randomProgram(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("def main():\n    acc = 0\n")
	n := r.Intn(4) + 1
	for j := 0; j < n; j++ {
		switch r.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "    for i%d in [1 .. %d]:\n        acc += i%d * %d\n", j, r.Intn(20)+1, j, r.Intn(5)+1)
		case 1:
			fmt.Fprintf(&sb, "    if acc %% %d == 0:\n        acc += %d\n    else:\n        acc -= %d\n", r.Intn(5)+1, r.Intn(100), r.Intn(100))
		default:
			fmt.Fprintf(&sb, "    w%d = 0\n    while w%d < %d:\n        w%d += 1\n        acc += w%d\n", j, j, r.Intn(15)+1, j, j)
		}
	}
	sb.WriteString("    print(acc)\n")
	return sb.String()
}

// TestRandomProgramDifferential checks backend agreement on generated
// programs.
func TestRandomProgramDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		differential(t, randomProgram(r), "")
	}
}

// TestVerifyAfterEveryPhase holds the programs this package runs — the
// differential corpus, the benchmark sources, the generated programs — to
// the IR's rules as Compile emits them and again after each optimizer
// phase, at O1 and O2. (Every other test verifies what it compiles too,
// through compileBoth and optimize; this one makes the coverage explicit
// and reaches O1.)
func TestVerifyAfterEveryPhase(t *testing.T) {
	var srcs []string
	for _, c := range differentialCorpus {
		srcs = append(srcs, c.src)
	}
	srcs = append(srcs, arithLoopSrc, realLoopSrc, arrayLoopSrc, callLoopSrc, fibSrc, sharedLoopSrc, parForBodySrc)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		srcs = append(srcs, randomProgram(r))
	}
	for _, src := range srcs {
		for _, level := range []int{bytecode.O1, bytecode.O2} {
			compileOpt(t, src, level)
		}
	}
}

func TestDisassembleSmoke(t *testing.T) {
	_, bc := compileBoth(t, "def main():\n    x = 1\n    print(x + 2)\n")
	text := bytecode.Disassemble(bc.Funcs[0])
	for _, want := range []string{"func main", "const", "add", "callb", "r0=x", "builtin#0"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// runVMOpt executes src on the VM with the bytecode optimized at the given
// level.
func runVMOpt(t *testing.T, src, input string, level int) (string, error) {
	t.Helper()
	_, bc := compileBoth(t, src)
	optimize(t, bc, level)
	var out bytes.Buffer
	m := New(bc, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := m.Run()
	return out.String(), err
}

// TestOptimizerDifferentialCorpus is the optimizer's main safety net: every
// corpus program must produce byte-identical output (and agree on
// success) at -O0, -O1 and -O2.
func TestOptimizerDifferentialCorpus(t *testing.T) {
	for _, c := range differentialCorpus {
		t.Run(c.name, func(t *testing.T) {
			o0, err0 := runVMOpt(t, c.src, c.input, bytecode.O0)
			for _, level := range []int{bytecode.O1, bytecode.O2} {
				oN, errN := runVMOpt(t, c.src, c.input, level)
				if (err0 == nil) != (errN == nil) {
					t.Fatalf("error disagreement at O%d: O0=%v O%d=%v", level, err0, level, errN)
				}
				if o0 != oN {
					t.Fatalf("output disagreement at O%d:\nO0: %q\nO%d: %q", level, o0, level, oN)
				}
			}
		})
	}
}

// TestRealZeroDivisionVM pins the unified arithmetic error semantics: real
// division and modulo by zero raise the same errors as their integer
// counterparts, at every optimization level.
func TestRealZeroDivisionVM(t *testing.T) {
	cases := []struct{ name, src, substr string }{
		{"real_div_var", "def main():\n    x = 0.0\n    print(1.5 / x)\n", "division by zero"},
		{"real_mod_var", "def main():\n    x = 0.0\n    print(1.5 % x)\n", "modulo by zero"},
		{"real_div_const", "def main():\n    print(1.5 / 0.0)\n", "division by zero"},
		{"real_mod_const", "def main():\n    print(1.5 % 0.0)\n", "modulo by zero"},
		{"mixed_div_const", "def main():\n    print(3 / 0.0)\n", "division by zero"},
		{"int_div_const", "def main():\n    print(1 / 0)\n", "division by zero"},
		{"int_mod_const", "def main():\n    print(1 % 0)\n", "modulo by zero"},
	}
	for _, c := range cases {
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			t.Run(fmt.Sprintf("%s_O%d", c.name, level), func(t *testing.T) {
				_, err := runVMOpt(t, c.src, "", level)
				if err == nil || !strings.Contains(err.Error(), c.substr) {
					t.Errorf("err = %v, want substring %q", err, c.substr)
				}
			})
		}
	}
}

// TestOptimizerShrinksCode sanity-checks that optimization actually does
// something on a constant-heavy program, and that fused opcodes appear
// only at O2.
func TestOptimizerShrinksCode(t *testing.T) {
	src := "def main():\n    i = 0\n    s = 0\n    while i < 1000:\n        s += 2 * 3 + 4\n        i += 1\n    print(s)\n"
	_, bc0 := compileBoth(t, src)
	_, bc2 := compileBoth(t, src)
	optimize(t, bc2, bytecode.O2)
	n0 := len(bc0.Funcs[0].Chunks[0].Code)
	n2 := len(bc2.Funcs[0].Chunks[0].Code)
	if n2 >= n0 {
		t.Errorf("O2 code length %d, want < O0 length %d", n2, n0)
	}
	fused := false
	for _, ins := range bc2.Funcs[0].Chunks[0].Code {
		if ins.Op.Fused() {
			fused = true
		}
	}
	if !fused {
		t.Error("O2 bytecode contains no fused opcodes for a compare-and-add loop")
	}
	out0, err0 := runVMOpt(t, src, "", bytecode.O0)
	out2, err2 := runVMOpt(t, src, "", bytecode.O2)
	if err0 != nil || err2 != nil || out0 != out2 {
		t.Errorf("outputs disagree: O0=%q (%v) O2=%q (%v)", out0, err0, out2, err2)
	}
}
