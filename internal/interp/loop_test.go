package interp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/guard"
	"repro/internal/rt"
	"repro/internal/sched"
)

// The loop benchmarks run the VM's loop probes (internal/vm's call_test.go)
// on the interpreter: operators on ints, on reals and on array elements,
// and a parallel for whose body is one element store. Each program's answer
// is pinned, so a benchmark cannot time a wrong run.

// arithLoopSrc makes no user call: int arithmetic, an int comparison and a
// statement prologue per operation.
const arithLoopSrc = `def main():
    i = 0
    s = 7
    while i < 100000:
        s = (s * 31 + i) % 1000003
        i = i + 1
    print(s)
`

// realLoopSrc is a Mandelbrot escape loop: real arithmetic and real
// comparisons, with int operands widened where the two meet.
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

// arrayLoopSrc is a sieve: indexed stores and loads over an int array.
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

// parForBodySrc is a parallel for with next to nothing in its body: what
// is timed is an iteration's own cost.
const parForBodySrc = `def main():
    out = range(20000)
    parallel for i in range(20000):
        out[i] = i + 1
    print(out[19999])
`

func TestLoopBenchmarkSources(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{arithLoopSrc, "518430\n"},
		{realLoopSrc, "24543\n"},
		{arrayLoopSrc, "4203\n"},
		{parForBodySrc, "20000\n"},
	} {
		if got := runsOf(t, c.src, rt.Config{})(); got != c.want {
			t.Errorf("printed %q, want %q\n%s", got, c.want, c.src)
		}
	}
}

func BenchmarkArithLoop(b *testing.B) { benchmarkRun(b, arithLoopSrc, rt.Config{}) }
func BenchmarkRealLoop(b *testing.B)  { benchmarkRun(b, realLoopSrc, rt.Config{}) }
func BenchmarkArrayLoop(b *testing.B) { benchmarkRun(b, arrayLoopSrc, rt.Config{}) }

// BenchmarkArithLoopGoverned runs the same loop under the sandbox's
// limits, as every /run is: each statement also counts a step, and every
// guard.StepBatch statements the count is handed to the governor.
func BenchmarkArithLoopGoverned(b *testing.B) {
	benchmarkRun(b, arithLoopSrc, rt.Config{Limits: guard.Limits{}.WithSandboxDefaults()})
}

// BenchmarkParForBody also reports allocations per iteration of the
// parallel for, the run's fixed ones included.
func BenchmarkParForBody(b *testing.B) {
	const iters = 20000
	run := runsOf(b, parForBodySrc, rt.Config{Sched: sched.Config{Workers: 2}})
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

// A parallel for whose induction variable is private and whose body
// starts no thread allocates nothing per iteration: a worker makes one
// view of the frame and stores each iteration's value in its cell. Ten
// times the iterations cost at most a constant per worker more.
func TestParallelForDoesNotAllocatePerIteration(t *testing.T) {
	const workers = 2
	allocs := func(n int) float64 {
		run := runsOf(t, fmt.Sprintf(`def main():
    out = range(%d)
    parallel for i in out:
        out[i] = i + 1
    print(out[0])
`, n), rt.Config{Sched: sched.Config{Workers: workers}})
		run()
		return testing.AllocsPerRun(5, func() { run() })
	}
	if extra := allocs(10000) - allocs(1000); extra > 2*workers {
		t.Errorf("9000 more iterations cost %v more allocations, want at most %d", extra, 2*workers)
	}
}

// Where the body starts threads, which may outlive the iteration, each
// iteration keeps a cell of its own: every background thread reads the
// induction value of the iteration that started it.
func TestParallelForSpawningBodyKeepsACellPerIteration(t *testing.T) {
	got := runsOf(t, `def main():
    out = range(8)
    done = [0]
    parallel for i in range(8):
        background:
            lock m:
                out[i] = i * 10
                done[0] += 1
    n = 0
    while n < 8:
        lock m:
            n = done[0]
    print(out)
`, rt.Config{Sched: sched.Config{Workers: 2}})()
	if want := "[0, 10, 20, 30, 40, 50, 60, 70]\n"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
}
