package vm_test

// The VM against the interpreter: every test here runs its programs on
// the parity engine table (the interpreter and the VM at every level)
// and requires the same output and the same error, position
// included. Tests that read the VM's internals stay in package vm.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/parity"
	"repro/internal/rt"
	"repro/internal/sched"
)

// agree runs src on every engine under cfg and returns what they agree on.
func agree(t *testing.T, src string, cfg rt.Config) parity.Result {
	t.Helper()
	return parity.Agree(t, parity.Case{Name: t.Name(), File: "test.ttr", Src: src, Config: cfg})
}

// compileAt compiles src for the VM at level, the IR verified after every
// phase, for the tests that look at the instructions.
func compileAt(t *testing.T, src string, level int) *bytecode.Program {
	t.Helper()
	prog, err := core.Compile("test.ttr", src)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := core.CompileBytecode(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.VerifyOptimize(bc, level); err != nil {
		t.Fatalf("-O%d: %v", level, err)
	}
	return bc
}

// differentialCorpus is a broad program corpus: every program must mean the
// same on every engine, the optimizer's levels included.
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
	// Statements after a terminator, constant conditions, and jumps the
	// compiler threads: none is emitted or run.
	{"unreachable_and_threaded", `def edges(n int) int:
    s = 0
    while false:
        s += 1
    if true:
        s += 2
    else:
        s += 3
    while n > 0:
        n -= 1
        if n % 2 == 0:
            continue
            s += 100
        if n > 5:
            if s > 3:
                s += 1
        else:
            break
    for x in [1, 2, 3]:
        continue
    while true:
        s += 1
        if s < 10:
            continue
        break
    while s < 100:
        s += 1
        if s > 50:
            return s
            s += 100
    return s

def main():
    print(edges(9))
`, ""},
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

// TestDifferentialCorpus runs the corpus through the parity matrix: output
// and error text, position included, at every level against the
// interpreter's.
func TestDifferentialCorpus(t *testing.T) {
	var cases []parity.Case
	for _, c := range differentialCorpus {
		cases = append(cases, parity.Case{Name: c.name, File: "test.ttr", Src: c.src, Stdin: c.input})
	}
	parity.Matrix(t, "library", cases, parity.Library)
}

// TestOptimizerDifferentialCorpus is the optimizer's own safety net: every
// corpus program means at every level above 0 what the unoptimized VM
// does, so a divergence here is the optimizer's and not the compiler's.
func TestOptimizerDifferentialCorpus(t *testing.T) {
	o0, optimized := parity.Variants[1], parity.Variants[2:]
	for _, c := range differentialCorpus {
		t.Run(c.name, func(t *testing.T) {
			pc := parity.Case{Name: c.name, File: "test.ttr", Src: c.src, Stdin: c.input}
			want := o0.Run(t, pc)
			for _, v := range optimized {
				if d := parity.Diff(want, v.Run(t, pc)); d != "" {
					t.Errorf("%s diverges from %s: %s", v.Name, o0.Name, d)
				}
			}
		})
	}
}

// exprGen generates random well-typed integer expressions as source text,
// used to cross-check the engines and a direct Go evaluation.
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
		if got := agree(t, program, rt.Config{}); got.Stdout != fmt.Sprintf("%d\n", want) || got.Err != "" {
			t.Fatalf("expression %s = %q (%s), Go says %d", src, got.Stdout, got.Err, want)
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
		agree(t, randomProgram(r), rt.Config{})
	}
}

// parallelGen generates programs whose threads read variables that no
// thread of their construct writes and write variables and array elements
// that no other thread of it touches, nesting parallel blocks and
// parallel-for loops: every schedule prints the same, and which variables
// end up shared varies from program to program.
type parallelGen struct{ r *rand.Rand }

func (g parallelGen) expr(vars []string, depth int) string {
	if depth > 2 || g.r.Intn(3) == 0 {
		if len(vars) > 0 && g.r.Intn(5) < 3 {
			return vars[g.r.Intn(len(vars))]
		}
		return strconv.Itoa(g.r.Intn(10))
	}
	a, b := g.expr(vars, depth+1), g.expr(vars, depth+1)
	switch g.r.Intn(4) {
	case 0:
		return "(" + a + " + " + b + ")"
	case 1:
		return "(" + a + " - " + b + ")"
	case 2:
		return "(" + a + " * " + b + ")"
	}
	return fmt.Sprintf("(%s %% %d)", a, g.r.Intn(6)+2)
}

// block writes 1–4 statements at indent ind that read ro, may write rw
// and may write the elements outs of out.
func (g parallelGen) block(sb *strings.Builder, ind int, ro, rw []string, outs []int, depth int) {
	pad := strings.Repeat("    ", ind)
	all := append(append([]string(nil), ro...), rw...)
	for n := g.r.Intn(4) + 1; n > 0; n-- {
		switch k := g.r.Intn(8); {
		case k == 0 && len(rw) > 0:
			fmt.Fprintf(sb, "%s%s = %s\n", pad, rw[g.r.Intn(len(rw))], g.expr(all, 0))
		case k == 1 && len(rw) > 0:
			fmt.Fprintf(sb, "%s%s += %s\n", pad, rw[g.r.Intn(len(rw))], g.expr(all, 0))
		case k == 2 && len(outs) > 0:
			o := outs[g.r.Intn(len(outs))]
			fmt.Fprintf(sb, "%sout[%d] += %s\n", pad, o, g.expr(all, 0))
		case k == 3:
			fmt.Fprintf(sb, "%slock acc:\n%s    total[0] += %s\n", pad, pad, g.expr(all, 0))
		case k == 4 && depth < 3 && len(rw) > 0:
			fmt.Fprintf(sb, "%sfor %s in [%d .. %d]:\n", pad, rw[g.r.Intn(len(rw))], g.r.Intn(3), g.r.Intn(3)+3)
			g.block(sb, ind+1, ro, rw, outs, depth+1)
		case k == 5 && depth < 3 && len(outs) >= 2:
			// Arms split the writable variables and elements between them.
			arms := 2 + g.r.Intn(min(2, len(outs)-1))
			fmt.Fprintf(sb, "%sparallel:\n", pad)
			for i := 0; i < arms; i++ {
				var armRW []string
				var armOuts []int
				for j := i; j < len(rw); j += arms {
					armRW = append(armRW, rw[j])
				}
				for j := i; j < len(outs); j += arms {
					armOuts = append(armOuts, outs[j])
				}
				fmt.Fprintf(sb, "%s    if true:\n", pad)
				g.block(sb, ind+2, ro, armRW, armOuts, depth+1)
			}
		case k == 6 && depth < 3 && len(outs) > 0:
			// Each iteration owns the element its induction value names.
			v := fmt.Sprintf("i%d", depth)
			fmt.Fprintf(sb, "%sparallel for %s in %s:\n%s    out[%s] += %s\n", pad, v,
				strings.ReplaceAll(fmt.Sprint(outs), " ", ", "), pad, v, g.expr(append(ro, v), 0))
			g.block(sb, ind+1, append(ro, v), nil, nil, depth+1)
		default:
			fmt.Fprintf(sb, "%spass\n", pad)
		}
	}
}

func (g parallelGen) program() string {
	var sb strings.Builder
	sb.WriteString("def work(n int) int:\n    out = [0, 0, 0, 0, 0, 0]\n    total = [0]\n" +
		"    a = n\n    b = n + 1\n    c = 2\n    d = 3\n    i0 = 0\n    i1 = 0\n    i2 = 0\n")
	g.block(&sb, 1, []string{"n"}, []string{"a", "b", "c", "d"}, []int{0, 1, 2, 3, 4, 5}, 0)
	sb.WriteString("    s = a + b + c + d + total[0]\n    for e in out:\n        s += e\n    return s\n\n" +
		"def main():\n    for k in [0 .. 2]:\n        print(work(k))\n")
	return sb.String()
}

// TestRandomParallelProgramDifferential holds the engines to one another
// on generated programs with threads, whose variables the sharing
// analysis splits differently each time between cells and registers.
func TestRandomParallelProgramDifferential(t *testing.T) {
	g := parallelGen{rand.New(rand.NewSource(35))}
	for i := 0; i < 60; i++ {
		src := g.program()
		if r := agree(t, src, rt.Config{}); r.Err != "" {
			t.Fatalf("%s\n%s", r.Err, src)
		}
	}
}

// sumLoop builds a parallel-for program summing i*i over range(n) into
// disjoint slots, so output is deterministic under any schedule.
func sumLoop(n int) string {
	return fmt.Sprintf(`def main():
    n = %d
    out = range(n)
    parallel for i in range(n):
        out[i] = i * i
    total = 0
    for v in out:
        total += v
    print(total)
`, n)
}

func sumSquares(n int) string {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return fmt.Sprintf("%d\n", s)
}

// TestSchedChunkBoundaries sweeps iteration counts around the worker count
// and grain multiples, where chunk-claiming off-by-ones would drop or
// double-run iterations.
func TestSchedChunkBoundaries(t *testing.T) {
	cfgs := []sched.Config{
		{},                      // defaults: GOMAXPROCS workers, heuristic grain
		{Workers: 4},            // n == workers, workers±1 below
		{Workers: 4, Grain: 3},  // grain not dividing n
		{Workers: 1, Grain: 64}, // single worker, oversized grain
		{Workers: 16},           // more workers than elements for small n
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 31, 33} {
		for _, cfg := range cfgs {
			name := fmt.Sprintf("n%d_w%d_g%d", n, cfg.Workers, cfg.Grain)
			t.Run(name, func(t *testing.T) {
				src, want := sumLoop(n), sumSquares(n)
				if n == 0 {
					// range(0) is invalid; use an empty range literal.
					src = "def main():\n    c = 0\n    parallel for i in [1 .. 0]:\n        c = 1\n    print(c)\n"
					want = "0\n"
				}
				if r := agree(t, src, rt.Config{Sched: cfg}); r != (parity.Result{Stdout: want}) {
					t.Errorf("%+v, want stdout %q", r, want)
				}
			})
		}
	}
}

// TestSchedMultibyteString iterates a multibyte string in parallel under a
// small worker pool: each iteration must still see one whole code point.
func TestSchedMultibyteString(t *testing.T) {
	src := `def main():
    s = "héllo wörld"
    out = ["", "", "", "", "", "", "", "", "", "", ""]
    parallel for i in range(len(s)):
        out[i] = s[i]
    print(join(out, ""))
    print(len(s))
`
	want := parity.Result{Stdout: "héllo wörld\n11\n"}
	if r := agree(t, src, rt.Config{Sched: sched.Config{Workers: 2, Grain: 3}}); r != want {
		t.Errorf("%+v, want %+v", r, want)
	}
}

// TestSchedNestedParallel spawns a parallel block from inside each
// parallel-for iteration: inner threads are charged on top of the pool
// workers and must all join before the loop completes.
func TestSchedNestedParallel(t *testing.T) {
	src := `def main():
    n = 6
    a = range(n)
    b = range(n)
    parallel for i in range(n):
        parallel:
            a[i] = i * 2
            b[i] = i * 3
    s = 0
    for i in range(n):
        s += a[i] + b[i]
    print(s)
`
	if r := agree(t, src, rt.Config{Sched: sched.Config{Workers: 3}}); r != (parity.Result{Stdout: "75\n"}) {
		t.Errorf("%+v, want stdout %q", r, "75\n")
	}
}

// TestNestedConstructInAnEarlierArm: the arms of a block are consecutive
// chunks even when an arm before the last holds a parallel construct of
// its own, whose chunks come after them.
func TestNestedConstructInAnEarlierArm(t *testing.T) {
	src := `def main():
    out = [0, 0, 0, 0]
    parallel:
        parallel:
            out[0] = 1
            out[1] = 2
        out[2] = 3
        parallel for i in [3]:
            out[i] = 4
    print(out)
`
	if r := agree(t, src, rt.Config{}); r != (parity.Result{Stdout: "[1, 2, 3, 4]\n"}) {
		t.Errorf("%+v, want stdout %q", r, "[1, 2, 3, 4]\n")
	}
}

// TestSchedBoundedThreadCharge proves the governor charges per pool
// worker, not per iteration: a 1000-iteration loop on 2 workers fits in a
// 3-thread budget that one-goroutine-per-element spawning would blow
// immediately.
func TestSchedBoundedThreadCharge(t *testing.T) {
	r := agree(t, sumLoop(1000), rt.Config{Sched: sched.Config{Workers: 2}, Limits: guard.Limits{MaxThreads: 3}})
	if r != (parity.Result{Stdout: sumSquares(1000)}) {
		t.Fatalf("1000 iterations on 2 workers under a 3-thread budget: %+v", r)
	}

	// And the budget still bites when the pool itself is too wide. A trip's
	// message ends in the work each thread had flushed by then, which the
	// schedule decides, so each engine is held to the diagnosis alone.
	c := parity.Case{Name: t.Name(), File: "test.ttr", Src: sumLoop(1000),
		Config: rt.Config{Sched: sched.Config{Workers: 8}, Limits: guard.Limits{MaxThreads: 3}}}
	for _, v := range parity.Variants {
		if r := v.Run(t, c); !strings.Contains(r.Err, "exceeded thread budget (3 live threads)") {
			t.Errorf("%s: 8-worker pool under a 3-thread budget: %+v", v.Name, r)
		}
	}
}

// TestSchedNegativeIndexDifferential checks Python-style negative indexing
// agrees across backends, including the below -len error.
func TestSchedNegativeIndexDifferential(t *testing.T) {
	src := `def main():
    a = [10, 20, 30]
    s = "héllo"
    print(a[-1], " ", a[-3], " ", s[-1], " ", s[-5])
    a[-2] = 99
    print(a[1])
`
	if r := agree(t, src, rt.Config{}); r != (parity.Result{Stdout: "30 10 o h\n99\n"}) {
		t.Errorf("%+v", r)
	}
	r := agree(t, "def main():\n    a = [1, 2]\n    i = -3\n    print(a[i])\n", rt.Config{})
	if !strings.Contains(r.Err, "index -3 out of range") {
		t.Errorf("below -len: %+v", r)
	}
}

// TestFoldEveryOpcodeAgainstInterp runs every operator on literal operands
// — the five arithmetic ops, the six comparisons, unary neg/not and
// int→real widening: the expressions a constant folder would evaluate at
// compile time — on the VM at every level and checks two properties:
//
//  1. the operator's instruction is there for the VM to execute (typed,
//     untyped or fused with its constant), so the differential tests the
//     opcode and not a constant, and
//  2. the program's output is byte-identical to the tree-walking
//     interpreter's.
func TestFoldEveryOpcodeAgainstInterp(t *testing.T) {
	cases := []struct {
		name, expr string
		runs       []string // operators the VM must execute at every level
	}{
		{"add_int", "2 + 3", []string{"add"}},
		{"sub_int", "2 - 3", []string{"sub"}},
		{"mul_int", "2 * 3", []string{"mul"}},
		{"div_int", "7 / 2", []string{"div"}},
		{"mod_int", "7 % 2", []string{"mod"}},
		{"add_real", "1.5 + 0.25", []string{"add"}},
		{"sub_real", "1.5 - 0.25", []string{"sub"}},
		{"mul_real", "1.5 * 2.0", []string{"mul"}},
		{"div_real", "1.5 / 0.5", []string{"div"}},
		{"mod_real", "7.5 % 2.0", []string{"mod"}},
		{"add_mixed", "1 + 0.5", []string{"add"}},
		{"add_str", `"foo" + "bar"`, []string{"add"}},
		{"eq", "2 == 3", []string{"eq"}},
		{"ne", "2 != 3", []string{"ne"}},
		{"lt", "2 < 3", []string{"lt"}},
		{"le", "3 <= 3", []string{"le"}},
		{"gt", "2 > 3", []string{"gt"}},
		{"ge", "3 >= 4", []string{"ge"}},
		{"eq_str", `"a" == "a"`, []string{"eq"}},
		{"lt_str", `"ab" < "ac"`, []string{"lt"}},
		{"neg", "-(3 + 4)", []string{"neg", "add"}},
		{"neg_real", "-(1.5)", nil}, // a negated literal is one const
		{"not", "not true", []string{"not"}},
		{"toreal_widen", "1.5 + 2", []string{"add"}},
		{"nested", "2 * 3 + 4 * 5", []string{"add", "mul"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf("def main():\n    print(%s)\n", c.expr)

			if r := agree(t, src, rt.Config{}); r.Err != "" {
				t.Fatalf("run error: %s", r.Err)
			}
			for _, level := range []int{bytecode.O0, bytecode.O2} {
				// A mnemonic is its operator, plus a suffix when typed or
				// fused (add.i, add.rk); the untyped arithk names its operator
				// in its comment.
				dis := bytecode.Disassemble(compileAt(t, src, level).Funcs[0])
				for _, op := range c.runs {
					found := strings.Contains(dis, " "+op+" ")
					for _, line := range strings.Split(dis, "\n") {
						fields := strings.Fields(line)
						found = found || len(fields) >= 2 && strings.Split(fields[1], ".")[0] == op
					}
					if !found {
						t.Errorf("no %q instruction at O%d for the VM to run:\n%s", op, level, dis)
					}
				}
			}
		})
	}
}

// TestFoldRefusalsKeepRuntimeError pins the raising side: a constant
// expression whose evaluation raises does so at run time, and the error
// carries the operator's source position at every optimization level.
func TestFoldRefusalsKeepRuntimeError(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"div_zero", "def main():\n    print(1 / 0)\n", "test.ttr:2:13: runtime error: division by zero"},
		{"mod_zero", "def main():\n    print(1 % 0)\n", "test.ttr:2:13: runtime error: modulo by zero"},
		{"real_div_zero", "def main():\n    print(1.5 / 0.0)\n", "test.ttr:2:15: runtime error: division by zero"},
		{"real_mod_zero", "def main():\n    print(1.5 % 0.0)\n", "test.ttr:2:15: runtime error: modulo by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parity.Agree(t, parity.Case{Name: c.name, File: "test.ttr", Src: c.src,
				Want: &parity.Result{Err: c.wantErr}})
		})
	}
}

// Superinstruction fusion rewrites the instructions around the one an
// error is raised from: a div.i whose constant divisor is zero stays a
// div.i at -O2 (the constant-divisor forms do not test the divisor, so
// fusion leaves that one alone), and so does one with a constant dividend. These
// tests pin that the reported position — file, line, column of the
// operator — is byte-identical across every optimization level, which is
// the property teachers rely on when a student flips -O levels chasing a
// crash. Each case also asserts which opcode raises at O2, so the test
// cannot rot into comparing three unoptimized runs.
func TestErrorPositionsSurviveFusion(t *testing.T) {
	cases := []struct {
		name, src string
		o2Op      string // mnemonic that must appear in main's O2 disassembly
		want      string
	}{
		{
			// Constant zero right operand: x/0 is evaluated at run time by
			// the unfused div.i.
			name: "const_divisor",
			src:  "def main():\n    x = 5\n    x = x / 0\n    print(x)\n",
			o2Op: "div.i",
			want: "test.ttr:3:11: runtime error: division by zero",
		},
		{
			// Constant left operand: 10 / d stays unfused.
			name: "const_dividend",
			src:  "def f(d int) int:\n    return 10 / d\n\ndef main():\n    print(f(0))\n",
			o2Op: "div.i",
			want: "test.ttr:2:15: runtime error: division by zero",
		},
		{
			name: "const_modulus",
			src:  "def main():\n    x = 7\n    x = x % 0\n    print(x)\n",
			o2Op: "mod.i",
			want: "test.ttr:3:11: runtime error: modulo by zero",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parity.Agree(t, parity.Case{Name: c.name, File: "test.ttr", Src: c.src,
				Want: &parity.Result{Err: c.want}})

			// Prove which instruction raises at O2.
			bc := compileAt(t, c.src, bytecode.O2)
			var dis strings.Builder
			for _, f := range bc.Funcs {
				dis.WriteString(bytecode.Disassemble(f))
			}
			if !strings.Contains(dis.String(), " "+c.o2Op+" ") {
				t.Errorf("no %s in O2 disassembly:\n%s", c.o2Op, dis.String())
			}
		})
	}
}

// A fused compare-jump never raises, but the instructions around it do;
// fusion and jump threading must not smear positions across neighbors.
// The pinned column is the index expression that overruns inside a loop
// headed by a fused (constant) compare.
func TestErrorPositionInFusedLoop(t *testing.T) {
	src := "def main():\n    a = [1, 2, 3]\n    i = 0\n    while i < 5:\n        print(a[i])\n        i += 1\n"
	if r := agree(t, src, rt.Config{}); !strings.HasPrefix(r.Err, "test.ttr:5:") {
		t.Fatalf("index error not positioned on the a[i] line: %q", r.Err)
	}
}

// Recursion overflow is raised by the VM's call path, not by an
// instruction's operands, so it needs the call site's position handed to
// it: the message must be positioned, identical at every level, and
// identical to the interpreter's.
func TestRecursionOverflowIsPositionedAtTheCallSite(t *testing.T) {
	src := "def down(n int) int:\n    return down(n + 1) + 1\n\ndef main():\n    print(down(0))\n"
	want := "test.ttr:2:12: runtime error: call stack exhausted (recursion deeper than 10000)"
	parity.Agree(t, parity.Case{Name: t.Name(), File: "test.ttr", Src: src, Want: &parity.Result{Err: want}})
}

// Every typed opcode that can raise — int and real division and modulo by
// zero, array index and element store out of range — in its register and
// its constant-operand forms, in flat and in shared functions: the error,
// position included, is what the untyped IR reported for the same source
// (the messages below were recorded from the parent of the typed IR), is
// the interpreter's, and is the same at every level. o0 and o2 name the
// opcode that raises at those levels, so the table cannot rot into testing
// something else.
func TestTypedOpcodeErrorPositions(t *testing.T) {
	const (
		div2 = "def f(a %[1]s, b %[1]s) %[1]s:\n    return a %[2]s b\n\ndef main():\n    print(f(%[3]s))\n"
		kl   = "def f(d %[1]s) %[1]s:\n    return %[3]s %[2]s d\n\ndef main():\n    print(f(%[4]s))\n"
	)
	cases := []struct {
		name, src, o0, o2, want string
	}{
		{"int_div_reg", fmt.Sprintf(div2, "int", "/", "7, 0"), "div.i", "div.i", "2:14: runtime error: division by zero"},
		{"int_mod_reg", fmt.Sprintf(div2, "int", "%", "7, 0"), "mod.i", "mod.i", "2:14: runtime error: modulo by zero"},
		{"real_div_reg", fmt.Sprintf(div2, "real", "/", "7.5, 0.0"), "div.r", "div.r", "2:14: runtime error: division by zero"},
		{"real_mod_reg", fmt.Sprintf(div2, "real", "%", "7.5, 0.0"), "mod.r", "mod.r", "2:14: runtime error: modulo by zero"},
		{"int_div_const_dividend", fmt.Sprintf(kl, "int", "/", "10", "0"), "div.i", "div.i", "2:15: runtime error: division by zero"},
		{"int_mod_const_dividend", fmt.Sprintf(kl, "int", "%", "10", "0"), "mod.i", "mod.i", "2:15: runtime error: modulo by zero"},
		{"real_div_const_dividend", fmt.Sprintf(kl, "real", "/", "1.5", "0.0"), "div.r", "div.r", "2:16: runtime error: division by zero"},
		{"real_mod_const_dividend", fmt.Sprintf(kl, "real", "%", "1.5", "0.0"), "mod.r", "mod.r", "2:16: runtime error: modulo by zero"},
		{"int_div_const_divisor", "def main():\n    x = 5\n    x = x / 0\n    print(x)\n", "div.i", "div.i", "3:11: runtime error: division by zero"},
		{"int_mod_const_divisor", "def main():\n    x = 7\n    x = x % 0\n    print(x)\n", "mod.i", "mod.i", "3:11: runtime error: modulo by zero"},
		{"real_div_const_divisor", "def f(x real) real:\n    return x / 0.0\n\ndef main():\n    print(f(2.5))\n", "div.r", "div.r", "2:14: runtime error: division by zero"},
		{"real_mod_const_divisor", "def f(x real) real:\n    return x % 0.0\n\ndef main():\n    print(f(2.5))\n", "mod.r", "mod.r", "2:14: runtime error: modulo by zero"},
		{"int_div_aug", "def f(a int, b int) int:\n    a /= b\n    return a\n\ndef main():\n    print(f(7, 0))\n", "div.i", "div.i", "2:7: runtime error: division by zero"},
		{"real_mod_aug", "def f(a real, b real) real:\n    a %= b\n    return a\n\ndef main():\n    print(f(7.5, 0.0))\n", "mod.r", "mod.r", "2:7: runtime error: modulo by zero"},
		{"mixed_div_widens", "def f(a real, b int) real:\n    return a / b\n\ndef main():\n    print(f(7.5, 0))\n", "div.r", "div.r", "2:14: runtime error: division by zero"},
		{"index_reg", "def f(a [int], i int) int:\n    return a[i]\n\ndef main():\n    print(f([1, 2, 3], 3))\n", "index.a", "index.a", "2:12: runtime error: index 3 out of range for array of length 3"},
		{"index_reg_negative", "def f(a [int], i int) int:\n    return a[i]\n\ndef main():\n    print(f([1, 2, 3], -4))\n", "index.a", "index.a", "2:12: runtime error: index -4 out of range for array of length 3"},
		{"index_const", "def f(a [real]) real:\n    return a[5]\n\ndef main():\n    print(f([1.0, 2.0]))\n", "index.a", "index.a", "2:12: runtime error: index 5 out of range for array of length 2"},
		{"setindex_reg", "def f(a [int], i int):\n    a[i] = 9\n\ndef main():\n    f([1, 2, 3], 3)\n", "setidx.a", "setidx.a", "2:5: runtime error: index 3 out of range for array of length 3"},
		{"setindex_const", "def f(a [string]):\n    a[-3] = \"x\"\n\ndef main():\n    f([\"a\", \"b\"])\n", "setidx.a", "setidx.a", "2:5: runtime error: index -3 out of range for array of length 2"},
		{"setindex_aug", "def f(a [int], i int):\n    a[i] += 1\n\ndef main():\n    f([1, 2, 3], 7)\n", "index.a", "index.a", "2:5: runtime error: index 7 out of range for array of length 3"},
		{"shared_div", "def main():\n    d = 0\n    parallel:\n        d = d * 1\n        print(\"\")\n    print(10 / d)\n", "div.i", "div.i", "6:14: runtime error: division by zero"},
		{"shared_index", "def main():\n    a = [1, 2]\n    i = 2\n    background:\n        pass\n    a[i] = a[i] + 1\n", "index.a", "index.a", "6:12: runtime error: index 2 out of range for array of length 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := "test.ttr:" + c.want
			if r := agree(t, c.src, rt.Config{}); r.Err != want {
				t.Errorf("error %q, want %q", r.Err, want)
			}
			for level, op := range map[int]string{bytecode.O0: c.o0, bytecode.O2: c.o2} {
				dis := bytecode.DisassembleProgram(compileAt(t, c.src, level))
				if !strings.Contains(dis, " "+op) {
					t.Errorf("no %q in the -O%d disassembly:\n%s", op, level, dis)
				}
			}
		})
	}
}
