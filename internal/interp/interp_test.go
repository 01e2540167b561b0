package interp

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/check"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/stdlib"
	"repro/internal/trace"
	"repro/internal/value"
)

// compile parses and checks src, failing the test on error.
func compile(t testing.TB, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	return prog
}

// run executes src with the given stdin and returns its stdout.
func run(t *testing.T, src, input string) string {
	t.Helper()
	out, err := tryRun(t, src, input)
	if err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	return out
}

func tryRun(t *testing.T, src, input string) (string, error) {
	t.Helper()
	prog := compile(t, src)
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := in.Run()
	return out.String(), err
}

func TestGoldenPrograms(t *testing.T) {
	cases := []struct {
		name, src, input, want string
	}{
		{
			name: "hello",
			src:  "def main():\n    print(\"hello\")\n",
			want: "hello\n",
		},
		{
			name: "arithmetic",
			src:  "def main():\n    print(2 + 3 * 4, \" \", (2 + 3) * 4, \" \", 7 / 2, \" \", 7 % 3)\n",
			want: "14 20 3 1\n",
		},
		{
			name: "negative_division",
			src:  "def main():\n    print(-7 / 2, \" \", -7 % 2)\n",
			want: "-3 -1\n", // Go/C truncation semantics
		},
		{
			name: "real_arithmetic",
			src:  "def main():\n    print(1 / 2, \" \", 1.0 / 2, \" \", 1 / 2.0)\n",
			want: "0 0.5 0.5\n",
		},
		{
			name: "real_formatting",
			src:  "def main():\n    print(1.0, \" \", 2.5, \" \", 1.0 / 3.0)\n",
			want: "1.0 2.5 0.3333333333333333\n",
		},
		{
			name: "string_concat_and_index",
			src:  "def main():\n    s = \"ab\" + \"cd\"\n    print(s, \" \", s[2], \" \", len(s))\n",
			want: "abcd c 4\n",
		},
		{
			name: "string_compare",
			src:  "def main():\n    print(\"abc\" < \"abd\", \" \", \"a\" == \"a\", \" \", \"b\" != \"b\")\n",
			want: "true true false\n",
		},
		{
			name: "bool_ops",
			src:  "def main():\n    print(true and false, \" \", true or false, \" \", not true)\n",
			want: "false true false\n",
		},
		{
			name: "unary_minus",
			src:  "def main():\n    x = 5\n    print(-x, \" \", - -x, \" \", -2.5)\n",
			want: "-5 5 -2.5\n",
		},
		{
			name: "if_elif_else",
			src: `def grade(x int) string:
    if x >= 90:
        return "A"
    elif x >= 80:
        return "B"
    elif x >= 70:
        return "C"
    else:
        return "F"

def main():
    print(grade(95), grade(85), grade(75), grade(10))
`,
			want: "ABCF\n",
		},
		{
			name: "while_loop",
			src:  "def main():\n    i = 0\n    total = 0\n    while i < 10:\n        total += i\n        i += 1\n    print(total)\n",
			want: "45\n",
		},
		{
			name: "break_continue",
			src: `def main():
    total = 0
    i = 0
    while true:
        i += 1
        if i > 10:
            break
        if i % 2 == 0:
            continue
        total += i
    print(total)
`,
			want: "25\n", // 1+3+5+7+9
		},
		{
			name: "for_over_array",
			src:  "def main():\n    total = 0\n    for x in [1, 2, 3, 4]:\n        total += x\n    print(total)\n",
			want: "10\n",
		},
		{
			name: "for_over_range",
			src:  "def main():\n    total = 0\n    for x in [1 .. 100]:\n        total += x\n    print(total)\n",
			want: "5050\n",
		},
		{
			name: "for_over_string",
			src:  "def main():\n    for c in \"abc\":\n        print(c)\n",
			want: "a\nb\nc\n",
		},
		{
			name: "for_break",
			src:  "def main():\n    for x in [1 .. 10]:\n        if x == 4:\n            break\n        print(x)\n",
			want: "1\n2\n3\n",
		},
		{
			name: "nested_loops",
			src: `def main():
    for i in [1 .. 3]:
        for j in [1 .. 3]:
            if j > i:
                break
            print(i, j)
`,
			want: "11\n21\n22\n31\n32\n33\n",
		},
		{
			name: "recursion_factorial",
			src: `def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print(fact(10))
`,
			want: "3628800\n",
		},
		{
			name: "mutual_recursion",
			src: `def is_even(n int) bool:
    if n == 0:
        return true
    return is_odd(n - 1)

def is_odd(n int) bool:
    if n == 0:
        return false
    return is_even(n - 1)

def main():
    print(is_even(10), " ", is_odd(7))
`,
			want: "true true\n",
		},
		{
			name: "fibonacci",
			src: `def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def main():
    print(fib(15))
`,
			want: "610\n",
		},
		{
			name: "arrays_reference_semantics",
			src: `def bump(a [int]):
    a[0] = 99

def main():
    a = [1, 2]
    bump(a)
    print(a[0])
`,
			want: "99\n",
		},
		{
			name: "multidim_arrays",
			src: `def main():
    m = [[1, 2], [3, 4], [5, 6]]
    total = 0
    for row in m:
        for x in row:
            total += x
    m[1][1] = 40
    print(total, " ", m[1][1])
`,
			want: "21 40\n",
		},
		{
			name: "array_print",
			src:  "def main():\n    print([1, 2, 3], \" \", [\"a\"], \" \", [1.5])\n",
			want: "[1, 2, 3] [\"a\"] [1.5]\n",
		},
		{
			name: "array_equality",
			src:  "def main():\n    print([1, 2] == [1, 2], \" \", [1] == [2])\n",
			want: "true false\n",
		},
		{
			name: "augmented_assignment",
			src:  "def main():\n    x = 10\n    x += 5\n    x -= 3\n    x *= 2\n    x /= 4\n    x %= 4\n    print(x)\n",
			want: "2\n",
		},
		{
			name: "augmented_array_element",
			src:  "def main():\n    a = [10, 20]\n    a[1] += 5\n    a[0] *= 3\n    print(a)\n",
			want: "[30, 25]\n",
		},
		{
			name: "int_widens_to_real",
			src:  "def main():\n    r = 1.5\n    r = 2\n    print(r)\n    a = [1.0, 2]\n    print(a[1])\n",
			want: "2.0\n2.0\n",
		},
		{
			name: "widening_through_call",
			src: `def f(x real) real:
    return x / 2

def main():
    print(f(5))
`,
			want: "2.5\n",
		},
		{
			name: "short_circuit",
			src: `def boom() bool:
    print("boom")
    return true

def main():
    b = false and boom()
    c = true or boom()
    print(b, " ", c)
`,
			want: "false true\n",
		},
		{
			name: "void_function",
			src: `def greet(name string):
    print("hi ", name)

def main():
    greet("ada")
`,
			want: "hi ada\n",
		},
		{
			name: "fall_off_end_returns_zero",
			src: `def f() int:
    pass

def g() string:
    pass

def main():
    print(f(), " [", g(), "]")
`,
			want: "0 []\n",
		},
		{
			name:  "read_int",
			src:   "def main():\n    n = read_int()\n    print(n * 2)\n",
			input: "21\n",
			want:  "42\n",
		},
		{
			name: "figure1_factorial",
			src: `def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print("enter n: ")
    n = read_int()
    print(n, "! = ", fact(n))
`,
			input: "10\n",
			want:  "enter n: \n10! = 3628800\n",
		},
		{
			name: "stdlib_sampler",
			src:  "def main():\n    print(sqrt(16), \" \", abs(-3), \" \", min(4, 2), \" \", to_upper(\"ok\"))\n",
			want: "4.0 3 2 OK\n",
		},
		{
			name: "sort_and_join",
			src:  "def main():\n    print(sort([3, 1, 2]))\n    print(join(split(\"c,a,b\", \",\"), \"+\"))\n",
			want: "[1, 2, 3]\nc+a+b\n",
		},
		{
			name: "push_grows_array",
			src: `def main():
    a = [1]
    push(a, 2)
    push(a, 3)
    print(a, " ", len(a))
`,
			want: "[1, 2, 3] 3\n",
		},
		{
			name: "empty_range",
			src:  "def main():\n    print(len([5 .. 4]), \" \", [5 .. 5])\n",
			want: "0 [5]\n",
		},
		{
			name: "range_builtin",
			src:  "def main():\n    print(range(3), \" \", range(2, 5))\n",
			want: "[0, 1, 2] [2, 3, 4]\n",
		},
		{
			name: "comparisons_mixed_numeric",
			src:  "def main():\n    print(1 < 1.5, \" \", 2.0 == 2, \" \", 3 >= 3.5)\n",
			want: "true true false\n",
		},
		{
			name: "lock_reentrant_free_after_exit",
			src: `def main():
    lock m:
        x = 1
    lock m:
        x = 2
    print(x)
`,
			want: "2\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := run(t, c.src, c.input)
			if got != c.want {
				t.Errorf("output = %q, want %q", got, c.want)
			}
		})
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, substr string }{
		{"div_zero", "def main():\n    x = 0\n    print(1 / x)\n", "division by zero"},
		{"mod_zero", "def main():\n    x = 0\n    print(1 % x)\n", "modulo by zero"},
		{"real_div_zero", "def main():\n    x = 0.0\n    print(1.5 / x)\n", "division by zero"},
		{"real_mod_zero", "def main():\n    x = 0.0\n    print(1.5 % x)\n", "modulo by zero"},
		{"mixed_div_zero", "def main():\n    x = 0.0\n    print(3 / x)\n", "division by zero"},
		{"index_oob", "def main():\n    a = [1]\n    print(a[5])\n", "out of range"},
		{"index_below_neg_len", "def main():\n    a = [1]\n    i = -2\n    print(a[i])\n", "index -2 out of range"},
		{"string_index_oob", "def main():\n    s = \"ab\"\n    print(s[9])\n", "out of range"},
		{"store_oob", "def main():\n    a = [1]\n    a[3] = 0\n", "out of range"},
		{"string_immutable", "def main():\n    s = \"ab\"\n    s[0] = \"x\"\n", "immutable"},
		{"stack_overflow", "def f(n int) int:\n    return f(n + 1)\n\ndef main():\n    print(f(0))\n", "call stack exhausted"},
		{"self_deadlock", "def main():\n    lock m:\n        lock m:\n            pass\n", "already holds lock"},
		{"read_eof", "def main():\n    n = read_int()\n", "read_int"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := tryRun(t, c.src, "")
			if err == nil {
				t.Fatal("expected runtime error")
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not contain %q", err, c.substr)
			}
		})
	}
}

func TestErrorPositionReported(t *testing.T) {
	_, err := tryRun(t, "def main():\n    a = [1]\n    print(a[2])\n", "")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "test.ttr:3:") {
		t.Errorf("error %q lacks position", err)
	}
}

func TestNoMain(t *testing.T) {
	prog := compile(t, "def f():\n    pass\n")
	in := New(prog, rt.Config{Stdout: &bytes.Buffer{}})
	if err := in.Run(); err == nil || !strings.Contains(err.Error(), "no main function") {
		t.Errorf("err = %v", err)
	}
}

// --- parallel semantics ---

func TestFigure2ParallelSum(t *testing.T) {
	src := `def sumr(nums [int], a int, b int) int:
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
`
	if got := run(t, src, ""); got != "5050\n" {
		t.Errorf("output = %q", got)
	}
}

func TestFigure3ParallelMax(t *testing.T) {
	src := `def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    nums = [18, 32, 96, 48, 60]
    print(max(nums))
`
	for i := 0; i < 20; i++ { // schedule-sensitive: repeat
		if got := run(t, src, ""); got != "96\n" {
			t.Fatalf("iteration %d: output = %q", i, got)
		}
	}
}

func TestParallelForPrivateInductionVariable(t *testing.T) {
	// Each iteration's thread must see its own element; collecting squares
	// into disjoint slots proves no two threads shared the induction cell.
	src := `def main():
    n = 50
    out = range(n)
    parallel for i in range(n):
        out[i] = i * i
    ok = true
    for i in range(n):
        if out[i] != i * i:
            ok = false
    print(ok)
`
	for i := 0; i < 10; i++ {
		if got := run(t, src, ""); got != "true\n" {
			t.Fatalf("iteration %d: output = %q", i, got)
		}
	}
}

func TestParallelBlockSharedFrame(t *testing.T) {
	// Variables assigned inside parallel arms are visible after the join.
	src := `def main():
    parallel:
        a = 1
        b = 2
        c = 3
    print(a + b + c)
`
	if got := run(t, src, ""); got != "6\n" {
		t.Errorf("output = %q", got)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// 40 threads add to a shared counter under a lock; the induction
	// variable is thread-private, so the sum is exact iff the lock provides
	// mutual exclusion for the read-modify-write.
	src := `def main():
    count = 0
    parallel for i in range(40):
        lock counter:
            count += 25
    print(count)
`
	for i := 0; i < 10; i++ {
		if got := run(t, src, ""); got != "1000\n" {
			t.Fatalf("output = %q", got)
		}
	}
}

func TestLockCounterSumOfInduction(t *testing.T) {
	// Each thread adds its own (private) induction value under the lock.
	src := `def main():
    total = 0
    parallel for i in [1 .. 8]:
        lock t:
            total += i
    print(total)
`
	for i := 0; i < 10; i++ {
		if got := run(t, src, ""); got != "36\n" {
			t.Fatalf("output = %q", got)
		}
	}
}

func TestBackgroundRunsAndJoinsAtExit(t *testing.T) {
	src := `def main():
    background:
        print("bg")
    sleep(1)
`
	got := run(t, src, "")
	if got != "bg\n" {
		t.Errorf("output = %q", got)
	}
}

func TestBackgroundDoesNotBlockStatement(t *testing.T) {
	// The statement after background runs without waiting for the sleeping
	// background thread; both effects appear by exit.
	src := `def main():
    background:
        sleep(30)
    print("immediate")
`
	got := run(t, src, "")
	if got != "immediate\n" {
		t.Errorf("output = %q", got)
	}
}

func TestNoWaitBackground(t *testing.T) {
	src := `def main():
    background:
        sleep(2000)
    print("done")
`
	prog := compile(t, src)
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdout: &out, NoWaitBackground: true})
	done := make(chan error, 1)
	go func() { done <- in.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeAfter(t):
		t.Fatal("Run blocked on background thread despite NoWaitBackground")
	}
}

func timeAfter(t *testing.T) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		// Generous bound: the background sleep is 2s; failure mode is Run
		// taking that long.
		for i := 0; i < 100; i++ {
			sleepMS(10)
		}
		close(ch)
	}()
	return ch
}

func sleepMS(ms int) {
	b := stdlib.Lookup("sleep")
	b.Eval(nil, []value.Value{value.NewInt(int64(ms))})
}

func TestDeadlockDetected(t *testing.T) {
	src := `def ab():
    lock a:
        sleep(40)
        lock b:
            pass

def ba():
    lock b:
        sleep(40)
        lock a:
            pass

def main():
    parallel:
        ab()
        ba()
`
	_, err := tryRun(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock report", err)
	}
}

func TestThreeWayDeadlockDetected(t *testing.T) {
	src := `def w1():
    lock a:
        sleep(40)
        lock b:
            pass

def w2():
    lock b:
        sleep(40)
        lock c:
            pass

def w3():
    lock c:
        sleep(40)
        lock a:
            pass

def main():
    parallel:
        w1()
        w2()
        w3()
`
	_, err := tryRun(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock report", err)
	}
}

func TestErrorInThreadAbortsProgram(t *testing.T) {
	src := `def main():
    a = [1]
    parallel for i in [5, 6, 7]:
        a[i] = 0
    print("unreachable?")
`
	_, err := tryRun(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestNestedParallel(t *testing.T) {
	src := `def inner(k int) int:
    return k * 2

def outer(k int) int:
    parallel:
        a = inner(k)
        b = inner(k + 1)
    return a + b

def main():
    parallel:
        x = outer(1)
        y = outer(10)
    print(x + y)
`
	// outer(1)=2+4=6, outer(10)=20+22=42 → 48
	if got := run(t, src, ""); got != "48\n" {
		t.Errorf("output = %q", got)
	}
}

func TestManyThreads(t *testing.T) {
	src := `def main():
    n = 500
    out = range(n)
    parallel for i in range(n):
        out[i] = i + 1
    total = 0
    for x in out:
        total += x
    print(total)
`
	if got := run(t, src, ""); got != "125250\n" {
		t.Errorf("output = %q", got)
	}
}

// --- library API ---

func TestCallAPI(t *testing.T) {
	prog := compile(t, `def add(a int, b int) int:
    return a + b

def mean(xs [real]) real:
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)
`)
	in := New(prog, rt.Config{Stdout: &bytes.Buffer{}})
	v, err := in.Call("add", value.NewInt(2), value.NewInt(3))
	if err != nil || v.Int() != 5 {
		t.Errorf("add = %v, %v", v, err)
	}

	xs := value.NewArray(value.FromSlice(nil, []value.Value{value.NewReal(1), value.NewReal(2), value.NewReal(3)}))
	in2 := New(prog, rt.Config{Stdout: &bytes.Buffer{}})
	v, err = in2.Call("mean", xs)
	if err != nil || v.Real() != 2.0 {
		t.Errorf("mean = %v, %v", v, err)
	}

	if _, err := in2.Call("nope"); err == nil {
		t.Error("calling unknown function should fail")
	}
	if _, err := in2.Call("add", value.NewInt(1)); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestCallConvertsIntArgsToRealParams(t *testing.T) {
	prog := compile(t, "def half(x real) real:\n    return x / 2\n")
	in := New(prog, rt.Config{Stdout: &bytes.Buffer{}})
	v, err := in.Call("half", value.NewInt(5))
	if err != nil || v.Real() != 2.5 {
		t.Errorf("half = %v, %v", v, err)
	}
}

// --- tracing ---

func TestTraceEvents(t *testing.T) {
	src := `def main():
    parallel:
        x = 1
        y = 2
    lock m:
        z = 3
    print(x + y + z)
`
	prog := compile(t, src)
	col := trace.NewCollector()
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdout: &out, Tracer: col})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	counts := map[trace.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts[trace.ThreadStart] != 3 { // main + 2 parallel arms
		t.Errorf("ThreadStart = %d, want 3", counts[trace.ThreadStart])
	}
	if counts[trace.ThreadEnd] != 3 {
		t.Errorf("ThreadEnd = %d, want 3", counts[trace.ThreadEnd])
	}
	if counts[trace.LockAcquire] != 1 || counts[trace.LockRelease] != 1 {
		t.Errorf("lock events = %d/%d, want 1/1", counts[trace.LockAcquire], counts[trace.LockRelease])
	}
	if counts[trace.Output] != 1 {
		t.Errorf("Output = %d, want 1", counts[trace.Output])
	}
	if counts[trace.Step] == 0 {
		t.Error("no Step events recorded")
	}
}

func TestTraceVarEventsCarryLocksets(t *testing.T) {
	src := `def main():
    x = 0
    parallel for i in [1 .. 4]:
        lock m:
            x += 1
    print(x)
`
	prog := compile(t, src)
	col := trace.NewCollector()
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdout: &out, Tracer: col, TraceVars: true})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	sawLockedWrite := false
	for _, e := range col.Events() {
		if e.Kind == trace.VarWrite && e.Name == "x" && len(e.Locks) == 1 {
			sawLockedWrite = true
		}
	}
	if !sawLockedWrite {
		t.Error("no write to x recorded with a held lock")
	}
}

// --- work profiling (feeds the multicore simulator) ---

func TestWorkProfile(t *testing.T) {
	src := `def spin(n int) int:
    total = 0
    i = 0
    while i < n:
        total += i
        i += 1
    return total

def main():
    out = [0, 0]
    parallel for w in [0, 1]:
        out[w] = spin(1000)
    print(out[0])
`
	prog := compile(t, src)
	var out bytes.Buffer
	in := New(prog, rt.Config{Stdout: &out, CountWork: true})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	profile := in.WorkProfile()
	if len(profile) != 3 { // main + 2 workers
		t.Fatalf("profile has %d threads, want 3: %+v", len(profile), profile)
	}
	var main, workers []ThreadWork
	for _, tw := range profile {
		if tw.ID == 0 {
			main = append(main, tw)
		} else {
			workers = append(workers, tw)
		}
	}
	if len(main) != 1 || len(workers) != 2 {
		t.Fatalf("profile split wrong: %+v", profile)
	}
	// The two workers do identical loops: their work counts must be equal
	// (determinism) and much larger than main's residual work.
	if workers[0].Work != workers[1].Work {
		t.Errorf("worker works differ: %d vs %d", workers[0].Work, workers[1].Work)
	}
	if workers[0].Work < 1000 {
		t.Errorf("worker work implausibly small: %d", workers[0].Work)
	}
	for _, w := range workers {
		if w.Parent != 0 {
			t.Errorf("worker parent = %d, want 0", w.Parent)
		}
	}
}

func TestWorkProfileDeterministic(t *testing.T) {
	src := `def main():
    total = 0
    for i in [1 .. 50]:
        total += i
    print(total)
`
	prog := compile(t, src)
	runOnce := func() int64 {
		var out bytes.Buffer
		in := New(prog, rt.Config{Stdout: &out, CountWork: true})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		p := in.WorkProfile()
		var total int64
		for _, tw := range p {
			total += tw.Work
		}
		return total
	}
	a, b := runOnce(), runOnce()
	if a != b || a == 0 {
		t.Errorf("work counts not deterministic: %d vs %d", a, b)
	}
}

// --- cancellation ---

func TestCancel(t *testing.T) {
	src := `def main():
    i = 0
    while true:
        i += 1
`
	prog := compile(t, src)
	in := New(prog, rt.Config{Stdout: &bytes.Buffer{}})
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		err = in.Run()
	}()
	sleepMS(20)
	in.Cancel()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("err = %v", err)
	}
}

// TestOutputDeterminismUnderParallel checks that a parallel reduction into
// disjoint slots always produces the same output regardless of schedule.
func TestOutputDeterminismUnderParallel(t *testing.T) {
	src := `def square(x int) int:
    return x * x

def main():
    n = 20
    out = range(n)
    parallel for i in range(n):
        out[i] = square(i)
    print(out)
`
	want := run(t, src, "")
	for i := 0; i < 10; i++ {
		if got := run(t, src, ""); got != want {
			t.Fatalf("nondeterministic output: %q vs %q", got, want)
		}
	}
	var nums []int
	for _, f := range strings.Fields(strings.Trim(strings.TrimSpace(want), "[]")) {
		n := 0
		for _, ch := range strings.TrimSuffix(f, ",") {
			n = n*10 + int(ch-'0')
		}
		nums = append(nums, n)
	}
	if !sort.IntsAreSorted(nums) || nums[19] != 361 {
		t.Errorf("squares wrong: %v", nums)
	}
}
