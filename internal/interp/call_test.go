package interp

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/rt"
	"repro/internal/stdlib"
	"repro/internal/value"
)

// The call path: a flat activation's record and cells are windows on its
// thread's stacks, and a call's arguments are a window on its argument
// stack (see frame), so these tests
// pin what that has to hold — no allocation per call, and a thread that
// comes back from every call as it went in. The semantics of calls are
// pinned against the VM in internal/vm's call tests.

// callLoopSrc is the benchmark's call probe: three user calls per
// iteration and almost nothing else.
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

const fibSrc = `def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def main():
    print(fib(20))
`

// runsOf returns a function that runs src on a fresh interpreter and
// returns what it printed, failing the test on a runtime error.
func runsOf(t testing.TB, src string) func() string {
	prog := compile(t, src)
	var out bytes.Buffer
	return func() string {
		out.Reset()
		if err := New(prog, rt.Config{Stdout: &out}).Run(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
}

func benchmarkRun(b *testing.B, src string) {
	run := runsOf(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkCallLoop(b *testing.B) { benchmarkRun(b, callLoopSrc) }
func BenchmarkFib(b *testing.B)      { benchmarkRun(b, fibSrc) }

// 90 000 calls per run used to be 270 000 allocations: a record, an array
// of cells and an argument slice each. What is left is the interpreter, its
// thread and the stacks' first segments.
func TestCallFramesDoNotAllocate(t *testing.T) {
	run := runsOf(t, callLoopSrc)
	if got := run(); got != "60007\n" {
		t.Fatalf("call loop printed %q", got)
	}
	if n := testing.AllocsPerRun(5, func() { run() }); n >= 40 {
		t.Errorf("%v allocations per run of the call loop, want fewer than 40", n)
	}
}

// A builtin reads its arguments from a window on the thread's argument
// stack: a call allocates what its kernel does and nothing more. Each row
// is one statement of a loop body; a loop of 2000 iterations is timed
// against one of 1000, so what the run costs once cancels out.
func TestBuiltinCallsDoNotAllocate(t *testing.T) {
	discard := stdlib.NewEnv(nil, io.Discard)
	printOne := []value.Value{value.NewInt(7)}
	kernel := testing.AllocsPerRun(100, func() {
		_, _ = stdlib.ByID(stdlib.Print).Eval(discard, printOne) // no governor: it cannot fail
	})
	rows := []struct {
		stmt string
		max  float64
	}{
		{"n = len(a) + len(s)", 0},
		{"x = sqrt(n)", 0},
		{"x = pow(sqrt(n), 2) + abs(x)", 0},
		{"n = step(len(a))", 0},
		{"print(7)", kernel},
	}
	for _, r := range rows {
		perIter := func(iters int) float64 {
			run := runsOf(t, fmt.Sprintf(`def step(x int) int:
    return x + 1

def main():
    a = [1, 2, 3]
    s = "four"
    n = 0
    x = 0.0
    i = 0
    while i < %d:
        %s
        i += 1
`, iters, r.stmt))
			run()
			return testing.AllocsPerRun(3, func() { run() })
		}
		if got := (perIter(2000) - perIter(1000)) / 1000; got > r.max {
			t.Errorf("%s: %.2f allocations per iteration, want at most %v", r.stmt, got, r.max)
		}
	}
}

// The thread a worker reuses must come back from every call as it went in:
// nothing claimed on any stack, no depth, every record, cell and argument
// zero.
func TestCallFramesAreReleasedOnReturn(t *testing.T) {
	prog := compile(t, `def down(n int) int:
    if n == 0:
        return 0
    s = to_string(n)
    return 1 + down(n - 1) + len(s) - len(s)

def main():
    pass
`)
	th := New(prog, rt.Config{Stdout: io.Discard}).newThread()
	down := prog.Lookup("down")
	for i := 0; i < 1000; i++ {
		n := int64(i * 7 % 400)
		v, err := th.call(down, []value.Value{value.NewInt(n)}, down.Pos())
		if err != nil || v.Int() != n {
			t.Fatalf("down(%d) = %v, %v", n, v, err)
		}
		if th.frames.Top() != 0 || th.cells.Top() != 0 || th.args.Top() != 0 || th.depth != 0 {
			t.Fatalf("after down(%d): frames sp=%d cells sp=%d args sp=%d depth=%d, want all zero",
				n, th.frames.Top(), th.cells.Top(), th.args.Top(), th.depth)
		}
	}
	records := th.frames.Segment()
	if len(records) == 0 {
		t.Fatal("no call claimed a record")
	}
	for i := range records {
		if f := &records[i]; f.fn != nil || f.own != nil {
			t.Fatalf("record %d of the released stack still holds %+v", i, f)
		}
	}
	cells := th.cells.Segment()
	for i := range cells {
		if v := cells[i].LoadLocal(); v != (value.Value{}) {
			t.Fatalf("cell %d of the released stack holds %v", i, v)
		}
	}
	for i, v := range th.args.Segment() {
		if v != (value.Value{}) {
			t.Fatalf("argument %d of the released stack holds %v", i, v)
		}
	}
}
