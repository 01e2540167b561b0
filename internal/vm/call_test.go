package vm

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/value"
)

// The call path: register windows and frame records live on a per-thread
// stack (see the package comment), so these tests pin what that design has
// to hold — no allocation per call, windows that stay put while the stack
// grows under live callers, stacks private to a thread, and release on
// every path.

// callLoopSrc is the benchmark's call probe: three user calls per
// iteration and almost nothing else. At -O2 step and twice are small
// leaves, inlined, so the call tests run it at -O0, where it still calls.
const callLoopSrc = `def step(x int) int:
    return x + 1

def twice(x int) int:
    return step(step(x))

def main():
    i = 0
    s = 7
    while i < 30000:
        s = twice(s) % 1000003
        i = i + 1
    print(s)
`

// gcdSweepSrc is run_calls' gcd sweep: a self tail call, which -O2 runs in
// place, about five times per gcd.
const gcdSweepSrc = `def gcd(a int, b int) int:
    if b == 0:
        return a
    return gcd(b, a % b)

def main():
    total = 0
    a = 1
    while a <= 140:
        b = 1
        while b <= 140:
            total += gcd(a + 4321, b)
            b += 1
        a += 1
    print(total)
`

const fibSrc = `def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def main():
    print(fib(20))
`

// arithLoopSrc makes no user call: the control that shows whether a change
// to the call path disturbed plain dispatch.
const arithLoopSrc = `def main():
    i = 0
    s = 7
    while i < 100000:
        s = (s * 31 + i) % 1000003
        i = i + 1
    print(s)
`

// realLoopSrc is a Mandelbrot escape loop: real arithmetic and real
// comparisons on the .r opcodes, where the int counters py and px meet a
// real (2.0 * py / 20) through one toreal and the literal is the real
// constant 20.0.
const realLoopSrc = `def main():
    total = 0
    py = 0
    while py < 20:
        y0 = -1.0 + 2.0 * py / 20
        px = 0
        while px < 40:
            x0 = -2.0 + 3.0 * px / 40
            x = 0.0
            y = 0.0
            it = 0
            while it < 100 and x * x + y * y <= 4.0:
                xt = x * x - y * y + x0
                y = 2.0 * x * y + y0
                x = xt
                it = it + 1
            total = total + it
            px = px + 1
        py = py + 1
    print(total)
`

// andLoopSrc is Mandelbrot's escape loop alone, at one point inside the
// set (c = -0.5 + 0.25i), so it never escapes: its condition is an `and`
// of an int and a real comparison, tested at the bottom as two branches.
const andLoopSrc = `def main():
    x = 0.0
    y = 0.0
    it = 0
    while it < 100000 and x * x + y * y <= 4.0:
        t = x * x - y * y - 0.5
        y = 2.0 * x * y + 0.25
        x = t
        it += 1
    print(it)
`

// forInSrc sums an int array with for-in: foriter takes the first element
// and fornext every other one at the loop's bottom.
const forInSrc = `def main():
    a = range(100000)
    s = 0
    for x in a:
        s += x
    print(s)
`

// arrayLoopSrc is a sieve: indexed stores a[i] = … and loads a[i] over an
// int array, where the value read or written crosses value.Array.
const arrayLoopSrc = `def main():
    n = 40000
    a = range(n)
    i = 2
    while i * i < n:
        if a[i] != 0:
            j = i * i
            while j < n:
                a[j] = 0
                j = j + i
        i = i + 1
    count = 0
    i = 2
    while i < n:
        if a[i] != 0:
            count = count + 1
        i = i + 1
    print(count)
`

// sharedLoopSrc runs its hot loop inside a function that also has a
// parallel block, so total, i and n are cells: every read of one is an
// OpLoadCell and every write an OpStoreCell, where the untyped IR had
// arithmetic instructions that locked the cells themselves. It is the one
// shape that executes more instructions under the typed IR.
const sharedLoopSrc = `def main():
    n = 30000
    total = 7
    i = 0
    while i < n:
        total = (total * 31 + i) % 1000003
        i += 1
    parallel:
        total = total + 1
        n = n + 1
    print(total + n)
`

// parForBodySrc is a parallel for with next to nothing in its body: what
// is timed is an iteration's own cost — its induction value written into
// the worker's window, and the thread bookkeeping around it.
const parForBodySrc = `def main():
    out = range(20000)
    parallel for i in range(20000):
        out[i] = i + 1
    print(out[19999])
`

// spawnSrc starts four threads a round that each make one call and are
// done: what is timed is what a spawned thread costs the engine, its first
// stack segment included. The arms are bare calls in a function that has
// locals — chunks without temporaries of their own, whose empty argument
// block still lies above the function's slots.
const spawnSrc = `def nothing():
    pass

def main():
    rounds = 0
    while rounds < 2000:
        parallel:
            nothing()
            nothing()
            nothing()
            nothing()
        rounds += 1
    print(rounds)
`

// compileOpt compiles src and optimizes it at level.
func compileOpt(t testing.TB, src string, level int) *bytecode.Program {
	t.Helper()
	_, bc := compileBoth(t, src)
	return optimize(t, bc, level)
}

// runsOf returns a function that runs bc on a fresh VM and returns what it
// printed, failing the test on a runtime error.
func runsOf(t testing.TB, bc *bytecode.Program, cfg rt.Config) func() string {
	var out bytes.Buffer
	cfg.Stdout = &out
	return func() string {
		out.Reset()
		if err := New(bc, cfg).Run(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
}

// runInterp executes src on the tree-walker, for the frame tests here to
// compare with.
func runInterp(t *testing.T, src, input string) (string, error) {
	t.Helper()
	prog, _ := compileBoth(t, src)
	var out bytes.Buffer
	err := interp.New(prog, rt.Config{Stdin: strings.NewReader(input), Stdout: &out}).Run()
	return out.String(), err
}

// sameAsInterp runs src on the VM at every level and requires the
// interpreter's output.
func sameAsInterp(t *testing.T, src string) {
	t.Helper()
	want, err := runInterp(t, src, "")
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for _, level := range []int{bytecode.O0, bytecode.O2} {
		if got, err := runVMOpt(t, src, "", level); err != nil || got != want {
			t.Errorf("-O%d printed %q (%v), interp %q", level, got, err, want)
		}
	}
}

// sameOnBoth runs src on the interpreter and on the VM at every level and
// requires each to print want.
func sameOnBoth(t *testing.T, src, want string) {
	t.Helper()
	if got, err := runInterp(t, src, ""); err != nil || got != want {
		t.Errorf("interp printed %q (%v), want %q", got, err, want)
	}
	for _, level := range []int{bytecode.O0, bytecode.O2} {
		if got, err := runVMOpt(t, src, "", level); err != nil || got != want {
			t.Errorf("-O%d printed %q (%v), want %q", level, got, err, want)
		}
	}
}

func benchmarkRun(b *testing.B, src string) { benchmarkRunAt(b, src, bytecode.O2) }

func benchmarkRunAt(b *testing.B, src string, level int) {
	run := runsOf(b, compileOpt(b, src, level), rt.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The loop benchmarks only fail on a runtime error; this holds their
// programs to the interpreter's answer.
func TestLoopBenchmarkSources(t *testing.T) {
	sameAsInterp(t, realLoopSrc)
	sameOnBoth(t, andLoopSrc, "100000\n")
	sameOnBoth(t, forInSrc, "4999950000\n")
	sameAsInterp(t, arrayLoopSrc)
	sameAsInterp(t, sharedLoopSrc)
	sameAsInterp(t, parForBodySrc)
	sameAsInterp(t, spawnSrc)
	sameAsInterp(t, gcdSweepSrc)
}

func BenchmarkArithLoop(b *testing.B)  { benchmarkRun(b, arithLoopSrc) }
func BenchmarkCallLoop(b *testing.B)   { benchmarkRunAt(b, callLoopSrc, bytecode.O0) }
func BenchmarkFib(b *testing.B)        { benchmarkRun(b, fibSrc) }
func BenchmarkRealLoop(b *testing.B)   { benchmarkRun(b, realLoopSrc) }
func BenchmarkAndLoop(b *testing.B)    { benchmarkRun(b, andLoopSrc) }
func BenchmarkForInLoop(b *testing.B)  { benchmarkRun(b, forInSrc) }
func BenchmarkArrayLoop(b *testing.B)  { benchmarkRun(b, arrayLoopSrc) }
func BenchmarkSharedLoop(b *testing.B) { benchmarkRun(b, sharedLoopSrc) }
func BenchmarkSpawn(b *testing.B)      { benchmarkRun(b, spawnSrc) }

// BenchmarkCallLoopInlined is the call probe at -O2, its calls inlined,
// and BenchmarkTailCall the gcd sweep, whose recursion runs in place.
func BenchmarkCallLoopInlined(b *testing.B) { benchmarkRun(b, callLoopSrc) }
func BenchmarkTailCall(b *testing.B)        { benchmarkRun(b, gcdSweepSrc) }

// BenchmarkParForBody also reports allocations per iteration of the
// parallel for (the run's few dozen fixed ones included): none of its own,
// neither a cell nor a view of the cells nor an array of temporaries.
func BenchmarkParForBody(b *testing.B) {
	const iters = 20000
	run := runsOf(b, compileOpt(b, parForBodySrc, bytecode.O2), rt.Config{Sched: sched.Config{Workers: 2}})
	run()
	b.ReportAllocs()
	b.ResetTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < b.N; i++ {
		run()
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-before)/float64(b.N)/iters, "allocs/iter")
}

// 90 000 calls per run used to be 180 000 allocations; what is left is the
// VM, its thread and the stack's first segments. At -O0 the calls are
// calls.
func TestCallFramesDoNotAllocate(t *testing.T) {
	run := runsOf(t, compileOpt(t, callLoopSrc, bytecode.O0), rt.Config{})
	run()
	if n := testing.AllocsPerRun(5, func() { run() }); n >= 100 {
		t.Errorf("%v allocations per run of the call loop, want fewer than 100", n)
	}
}

// Mutual recursion deep enough to outgrow several stack segments — the
// VM's registers, the interpreter's cells and arguments — with every caller
// holding something live across its call: a variable, an int temporary, a
// string temporary, an array element. Go twins of the four functions say
// what both engines must print.
func TestCallFramesStayPutWhenTheStackGrows(t *testing.T) {
	var f func(n int, s string) string
	var g func(n int) string
	f = func(n int, s string) string {
		if n == 0 {
			return "."
		}
		return s + g(n-1)
	}
	g = func(n int) string {
		if n == 0 {
			return "!"
		}
		return strconv.Itoa(n%10) + "-" + f(n-1, strconv.Itoa(n%7))
	}
	var h, k func(a []int, n int) int
	h = func(a []int, n int) int {
		if n == 0 {
			return 0
		}
		return a[n%3] + k(a, n-1)
	}
	k = func(a []int, n int) int {
		if n == 0 {
			return 1
		}
		return (n*2)%11 + h(a, n-1)
	}
	want := fmt.Sprintf("%s\n%d\n%s\n", f(2400, "<"), h([]int{3, 5, 7}, 3001), g(17))
	sameOnBoth(t, `def f(n int, s string) string:
    if n == 0:
        return "."
    return s + g(n - 1)

def g(n int) string:
    if n == 0:
        return "!"
    return (to_string(n % 10) + "-") + f(n - 1, to_string(n % 7))

def h(a [int], n int) int:
    if n == 0:
        return 0
    return a[n % 3] + k(a, n - 1)

def k(a [int], n int) int:
    if n == 0:
        return 1
    return (n * 2) % 11 + h(a, n - 1)

def main():
    print(f(2400, "<"))
    print(h([3, 5, 7], 3001))
    print(g(17))
`, want)
}

// Arguments that are calls: each claims and returns its windows while the
// outer call's arguments are half evaluated, user calls inside builtin
// arguments and builtins inside user arguments, an int result widened to a
// real parameter.
func TestCallArgumentsThatAreCalls(t *testing.T) {
	sameOnBoth(t, `def f(a int, b int) int:
    return a * 10 + b

def g(x int) int:
    return x + 1

def h(y int) int:
    return y * 2

def cat(s string, n int) string:
    return s + to_string(n)

def half(r real) real:
    return r / 2

def main():
    x = 3
    y = 4
    print(f(g(x), f(h(y), g(x))))
    print(cat(cat("a", f(1, 2)), len(cat("bc", g(h(x))))))
    print(half(f(g(h(1)), g(0))))
    print(sqrt(f(0, h(8))), " ", f(f(f(1, 2), f(3, 4)), f(f(5, 6), g(h(g(7))))))
`, "124\na123\n15.5\n4.0 2117\n")
}

// A flat function called from the body of every parallel construct runs
// on the calling Tetra thread's own stacks, round after round (the race
// detector watches in CI).
func TestFlatCallsFromEveryParallelConstruct(t *testing.T) {
	src := `def down(n int, a [int]) int:
    if n == 0:
        return a[0]
    return 1 + down(n - 1, a)

def label(n int) string:
    return to_string(n) + ":" + to_string(down(n, [n]))

def main():
    out = range(40)
    parallel for i in range(40):
        out[i] = down(i * 20, [i])
    s = 0
    for v in out:
        s += v
    a = ""
    b = ""
    c = 0
    parallel:
        a = label(300)
        b = label(700)
        c = down(1500, [2])
    print(s, " ", a, " ", b, " ", c)
    background:
        print(label(900))
`
	const want = "16380 300:600 700:1400 1502\n900:1800\n"
	prog, _ := compileBoth(t, src)
	var out bytes.Buffer
	for round := 0; round < 20; round++ {
		out.Reset()
		if err := interp.New(prog, rt.Config{Stdout: &out}).Run(); err != nil || out.String() != want {
			t.Fatalf("interp round %d printed %q (%v), want %q", round, out.String(), err, want)
		}
	}
	for _, level := range []int{bytecode.O0, bytecode.O2} {
		run := runsOf(t, compileOpt(t, src, level), rt.Config{})
		for round := 0; round < 20; round++ {
			if got := run(); got != want {
				t.Fatalf("-O%d round %d printed %q, want %q", level, round, got, want)
			}
		}
	}
}

// A window is claimed zeroed: a local read before it is written is none,
// whatever the previous owner of those registers left there.
func TestCallFramesStartZeroed(t *testing.T) {
	sameAsInterp(t, `def dirty(n int) int:
    a = n * 1000
    b = "text"
    c = [a, a]
    return a + len(b) + len(c)

def unset(n int) int:
    if n > 0:
        x = n
    return x

def main():
    print(dirty(5))
    print(unset(0))
    print(unset(3))
`)
}

// Every Tetra thread recurses on a stack of its own: a parallel for whose
// body recurses, then four parallel children recursing to different
// depths, round after round (the race detector watches in CI).
func TestCallFramesArePrivateToAThread(t *testing.T) {
	src := `def down(n int) int:
    if n == 0:
        return 0
    return 1 + down(n - 1)

def main():
    out = range(64)
    parallel for i in range(64):
        out[i] = down(i * 9)
    s = 0
    for x in out:
        s += x
    print(s)
    a = 0
    b = 0
    c = 0
    d = 0
    parallel:
        a = down(50)
        b = down(300)
        c = down(1200)
        d = down(2500)
    print(a, " ", b, " ", c, " ", d)
`
	want, err := runInterp(t, src, "")
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for _, level := range []int{bytecode.O0, bytecode.O2} {
		run := runsOf(t, compileOpt(t, src, level), rt.Config{})
		for round := 0; round < 100; round++ {
			if got := run(); got != want {
				t.Fatalf("-O%d round %d printed %q, interp %q", level, round, got, want)
			}
		}
	}
}

// parForDown recurses inside a parallel for over 10 000 elements, to the
// depth the expression gives for element i.
func parForDown(depth string) string {
	return fmt.Sprintf(`def down(n int) int:
    if n == 0:
        return 0
    return 1 + down(n - 1)

def main():
    out = range(10000)
    parallel for i in range(10000):
        out[i] = down(%s)
    s = 0
    for x in out:
        s += x
    print(s)
`, depth)
}

// A parallel-for worker runs its iterations on one engine thread, so on
// one stack. Recursing in them, to depths that differ, may only add what a
// worker's stack costs once.
func TestCallFramesOfParForWorkersShareAStack(t *testing.T) {
	const workers = 4
	deep := parForDown("i % 37")
	sameAsInterp(t, deep)
	opts := rt.Config{Sched: sched.Config{Workers: workers}}
	allocs := func(src string) float64 {
		run := runsOf(t, compileOpt(t, src, bytecode.O2), opts)
		run()
		return testing.AllocsPerRun(3, func() { run() })
	}
	if extra := allocs(deep) - allocs(parForDown("0")); extra > 32*workers {
		t.Errorf("recursing in the loop body costs %v more allocations per run, want at most %d for %d workers",
			extra, 32*workers, workers)
	}
}

// A parallel-for iteration allocates nothing: its induction value goes
// into its slot in the worker's window, which also holds its temporaries
// and the copy of the spawner's variables. Twice the iterations on the
// same two workers cost no more allocations.
func TestParForIterationsDoNotAllocate(t *testing.T) {
	src := func(n int) string {
		return fmt.Sprintf(`def main():
    out = range(%d)
    k = 3
    parallel for i in range(%d):
        out[i] = i * k
    print(out[%d - 1])
`, n, n, n)
	}
	const n = 4000
	sameAsInterp(t, src(n))
	allocs := func(n int) float64 {
		run := runsOf(t, compileOpt(t, src(n), bytecode.O2), rt.Config{Sched: sched.Config{Workers: 2}})
		run()
		return testing.AllocsPerRun(5, func() { run() })
	}
	if perIter := (allocs(2*n) - allocs(n)) / n; perIter >= 0.01 {
		t.Errorf("%.3f allocations per parallel-for iteration, want 0", perIter)
	}
}

// The thread a worker reuses must come back from every call as it went
// in: nothing claimed, no record pushed, every register zero.
func TestCallFramesAreReleasedOnReturn(t *testing.T) {
	bc := compileOpt(t, parForDown("0"), bytecode.O2)
	m := New(bc, rt.Config{Stdout: &bytes.Buffer{}})
	th := &thread{vm: m}
	down := bc.Funcs[m.byName["down"]]
	for i := 0; i < 1000; i++ {
		n := int64(i * 7 % 400)
		v, err := th.call(down, []value.Value{value.NewInt(n)})
		if err != nil || v.Int() != n {
			t.Fatalf("down(%d) = %v, %v", n, v, err)
		}
		if th.stack.Top() != 0 || len(th.frames) != 0 || th.depth != 0 {
			t.Fatalf("after down(%d): sp=%d frames=%d depth=%d, want all zero", n, th.stack.Top(), len(th.frames), th.depth)
		}
	}
	for i, r := range th.stack.Segment() {
		if r != (value.Value{}) {
			t.Fatalf("register %d of the released stack holds %v", i, r)
		}
	}
	for i, fr := range th.frames[:cap(th.frames)] {
		if fr.fn != nil || fr.regs != nil || fr.cells != nil {
			t.Fatalf("popped frame record %d still holds %+v", i, fr)
		}
	}
}

// An error raised under hundreds of frames — by an operator, by an
// argument being evaluated, by a builtin, or by the recursion bound itself
// — is the same on both engines, message and position, after the same
// output.
func TestCallFramesDoNotChangeAnError(t *testing.T) {
	cases := []struct{ name, src, out, err string }{
		{"operator", `def fall(n int, d int) int:
    if n == 0:
        return 10 / d
    return 1 + fall(n - 1, d)

def main():
    print(fall(500, 1))
    print(fall(500, 0))
`, "510\n", "test.ttr:3:19: runtime error: division by zero"},
		{"argument", `def walk(a [int], n int, acc int) int:
    if n == 0:
        return acc
    return walk(a, n - 1, acc + a[4 * (1 / n)])

def main():
    print(walk([1, 2, 3, 4, 5], 600, 0))
    print(walk([1, 2, 3, 4], 600, 0))
`, "604\n", "test.ttr:4:33: runtime error: index 4 out of range for array of length 4"},
		{"builtin", `def count(n int, s string) int:
    if n == 0:
        return to_int(s)
    return count(n - 1, s) + 1

def main():
    print(count(400, "7"))
    print(count(400, "seven"))
`, "407\n", "test.ttr:3:16: runtime error: to_int: cannot parse \"seven\""},
		{"recursion bound", `def ping(n int, s string) int:
    return pong(len(s) + n, s) + 1

def pong(n int, s string) int:
    return ping(n + 1, s) + 1

def main():
    print(ping(0, "abc"))
`, "", "test.ttr:2:12: runtime error: call stack exhausted (recursion deeper than 10000)"},
	}
	for _, c := range cases {
		out, err := runInterp(t, c.src, "")
		if err == nil || err.Error() != c.err || out != c.out {
			t.Errorf("%s: interp printed %q and failed with %v, want %q and %s", c.name, out, err, c.out, c.err)
		}
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			out, err := runVMOpt(t, c.src, "", level)
			if err == nil || err.Error() != c.err || out != c.out {
				t.Errorf("%s: -O%d printed %q and failed with %v, want %q and %s", c.name, level, out, err, c.out, c.err)
			}
		}
	}
}

// Call converts arguments to the parameter types as a call site does, on
// both engines: an int passed for a real parameter is widened.
func TestCallParityWithInterp(t *testing.T) {
	src := `def half(x real) real:
    return x / 2

def total(a [int], scale real) real:
    s = 0.0
    for x in a:
        s += x * scale
    return s

def greet(name string, n int) string:
    out = ""
    for i in range(n):
        out += name
    return out
`
	arr := value.NewArray(value.FromSlice(nil, []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(4)}))
	calls := []struct {
		fn   string
		args []value.Value
		want string
	}{
		{"half", []value.Value{value.NewInt(3)}, "1.5"},
		{"half", []value.Value{value.NewReal(3)}, "1.5"},
		{"total", []value.Value{arr, value.NewInt(2)}, "14.0"},
		{"greet", []value.Value{value.NewString("ab"), value.NewInt(3)}, "ababab"},
	}
	prog, _ := compileBoth(t, src)
	quiet := rt.Config{Stdout: io.Discard}
	for _, c := range calls {
		iv, err := interp.New(prog, quiet).Call(c.fn, c.args...)
		if err != nil || iv.String() != c.want {
			t.Fatalf("interp %s(%v) = %v, %v, want %s", c.fn, c.args, iv, err, c.want)
		}
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			v, err := New(compileOpt(t, src, level), quiet).Call(c.fn, c.args...)
			if err != nil || v.K != iv.K || v.String() != c.want {
				t.Errorf("-O%d %s(%v) = %v (kind %d), %v, interp %v (kind %d)", level, c.fn, c.args, v, v.K, err, iv, iv.K)
			}
		}
	}
}

// Typed code does not look at a value's kind again, so Call is where an
// argument from outside the language is held to its parameter's type —
// after the int-to-real widening a call site would apply — and both
// engines refuse the same arguments with the same words.
func TestCallRejectsIllTypedArguments(t *testing.T) {
	src := `def scale(x real, k int) real:
    return x * k

def first(a [int]) int:
    return a[0] + 1

def label(s string, on bool) string:
    if on:
        return s + "!"
    return s
`
	ints := value.NewArray(value.FromSlice(types.IntType, []value.Value{value.NewInt(4)}))
	reals := value.NewArray(value.FromSlice(nil, []value.Value{value.NewReal(4)}))
	calls := []struct {
		fn   string
		args []value.Value
		want string // the result printed, or the error
	}{
		{"scale", []value.Value{value.NewInt(3), value.NewInt(2)}, "6.0"},
		{"scale", []value.Value{value.NewReal(1.5), value.NewReal(2)}, "scale: parameter k is int, got real"},
		{"scale", []value.Value{value.NewString("3"), value.NewInt(2)}, "scale: parameter x is real, got string"},
		{"scale", []value.Value{{}, value.NewInt(2)}, "scale: parameter x is real, got no value"},
		{"first", []value.Value{ints}, "5"},
		{"first", []value.Value{reals}, "first: parameter a is [int], got [real]"},
		{"first", []value.Value{value.NewInt(4)}, "first: parameter a is [int], got int"},
		{"label", []value.Value{value.NewString("ok"), value.NewBool(true)}, "ok!"},
		{"label", []value.Value{value.NewString("ok"), value.NewInt(1)}, "label: parameter on is bool, got int"},
	}
	prog, _ := compileBoth(t, src)
	quiet := rt.Config{Stdout: io.Discard}
	got := func(v value.Value, err error) string {
		if err != nil {
			return err.Error()
		}
		return v.String()
	}
	for _, c := range calls {
		if g := got(interp.New(prog, quiet).Call(c.fn, c.args...)); g != c.want {
			t.Errorf("interp %s(%v): %s, want %s", c.fn, c.args, g, c.want)
		}
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			if g := got(New(compileOpt(t, src, level), quiet).Call(c.fn, c.args...)); g != c.want {
				t.Errorf("-O%d %s(%v): %s, want %s", level, c.fn, c.args, g, c.want)
			}
		}
	}
}
