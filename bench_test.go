package repro

// One benchmark per table/figure of the paper (DESIGN.md §4):
//
//	F1-F3  the paper's program listings, timed end to end
//	E1     primes speedup sweep (workers 1..8), interpreter
//	E2     TSP speedup sweep (workers 1..8), interpreter
//	A1     backend ablation: interpreter vs VM vs native Go
//	A2     per-cell locking ablation (the interpreter memory-safety cost)
//	plus compiler-stage microbenchmarks (lexer/parser/checker/codegen).
//
// The sweeps gain wall-clock time only up to the host's core count; the
// simulated speedup tables come from cmd/tetrabench (see EXPERIMENTS.md).
// These are `go test -bench` microbenchmarks for working on one layer; the
// system's benchmark, with per-PR regression bounds, is benchmark/
// (BENCHMARK.json).

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/value"
	"repro/tetra"
)

// runBench compiles src once and executes it b.N times on the interpreter.
func runBench(b *testing.B, src, input string) {
	b.Helper()
	prog, err := core.Compile("bench.ttr", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := core.Run(prog, core.Config{Stdin: strings.NewReader(input), Stdout: &out}); err != nil {
			b.Fatal(err)
		}
	}
}

const figure1Src = `def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print("enter n: ")
    n = read_int()
    print(n, "! = ", fact(n))
`

const figure2Src = `def sumr(nums [int], a int, b int) int:
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

const figure3Src = `def max(nums [int]) int:
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

// F1: Figure I, the sequential factorial program.
func BenchmarkFigure1Factorial(b *testing.B) {
	runBench(b, figure1Src, "12\n")
}

// F2: Figure II, the two-thread parallel sum.
func BenchmarkFigure2ParallelSum(b *testing.B) {
	runBench(b, figure2Src, "")
}

// F3: Figure III, the parallel max with a lock.
func BenchmarkFigure3ParallelMax(b *testing.B) {
	runBench(b, figure3Src, "")
}

// E1: the primes workload at each worker count. On a multicore host the
// per-op times across sub-benchmarks ARE the speedup table.
func BenchmarkPrimesSpeedup(b *testing.B) {
	const limit = 20000
	for _, w := range []int{1, 2, 4, 8} {
		src := bench.PrimesSource(limit, w)
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			runBench(b, src, "")
		})
	}
}

// E2: the TSP workload at each worker count.
func BenchmarkTSPSpeedup(b *testing.B) {
	const cities = 8
	for _, w := range []int{1, 2, 4, 8} {
		src := bench.TSPSource(cities, w)
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			runBench(b, src, "")
		})
	}
}

// A1: backend ablation — the same sequential workloads on the tree-walking
// interpreter, the bytecode VM, and native Go.
func BenchmarkAblationPrimes(b *testing.B) {
	const limit = 10000
	src := bench.PrimesSource(limit, 1)
	prog, err := core.Compile("p.ttr", src)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := core.CompileBytecode(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := core.NewVM(bc, core.Config{Stdout: &out}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bench.PrimesNative(limit, 1) == 0 {
				b.Fatal("wrong count")
			}
		}
	})
}

func BenchmarkAblationTSP(b *testing.B) {
	const cities = 8
	src := bench.TSPSource(cities, 1)
	prog, err := core.Compile("t.ttr", src)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := core.CompileBytecode(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := core.NewVM(bc, core.Config{Stdout: &out}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bench.TSPNative(cities, 1) <= 0 {
				b.Fatal("wrong tour")
			}
		}
	})
}

// A2: the cost of per-cell locking, the design choice that keeps the
// interpreter memory-safe while Tetra threads share frames (DESIGN.md §4).
func BenchmarkCellAccess(b *testing.B) {
	c := value.NewCell(value.NewInt(1))
	b.Run("locked", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			v := c.Load()
			sink += v.Int()
			c.Store(value.NewInt(sink))
		}
	})
	b.Run("unlocked", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			v := c.LoadLocal()
			sink += v.Int()
			c.StoreLocal(value.NewInt(sink))
		}
	})
}

// A2b: end-to-end effect of the shared-frame/local-frame split — the same
// loop in a function with and without a parallel construct (the checker
// proves the latter thread-private and the interpreter skips cell locks).
func BenchmarkFrameSharing(b *testing.B) {
	mk := func(parallel bool) string {
		tail := ""
		if parallel {
			// A parallel block that does nothing still marks the frame
			// shared.
			tail = "    parallel:\n        pass\n"
		}
		return "def main():\n    t = 0\n    i = 0\n    while i < 10000:\n        t += i\n        i += 1\n" + tail + "    print(t)\n"
	}
	for _, mode := range []struct {
		name string
		par  bool
	}{{"private-frame", false}, {"shared-frame", true}} {
		prog, err := core.Compile("f.ttr", mk(mode.par))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out bytes.Buffer
				if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A2c: array element storage — atomic word storage (scalar elements) vs
// boxed storage (string elements).
func BenchmarkArrayElementAccess(b *testing.B) {
	intArr := value.NewArrayOf(types.IntType, 64)
	strArr := value.NewArrayOf(types.StringType, 64)
	b.Run("scalar-atomic", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			intArr.Set(i&63, value.NewInt(int64(i)))
			sink += intArr.Get(i & 63).Int()
		}
	})
	b.Run("boxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strArr.Set(i&63, value.NewString("x"))
			_ = strArr.Get(i & 63)
		}
	})
}

// Tracing overhead: the same program with and without an event collector
// attached (the cost a student pays for `tetra -trace`).
func BenchmarkTraceOverhead(b *testing.B) {
	prog, err := core.Compile("t.ttr", `def main():
    t = 0
    for i in [1 .. 2000]:
        t += i
    print(t)
`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			col := trace.NewCollector()
			if err := core.Run(prog, core.Config{Stdout: &out, Tracer: col}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Thread-machinery microbenchmarks: spawn/join and lock block overhead.
func BenchmarkSpawnJoin(b *testing.B) {
	prog, err := core.Compile("s.ttr", `def main():
    parallel:
        pass
        pass
        pass
        pass
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockBlock(b *testing.B) {
	prog, err := core.Compile("l.ttr", `def main():
    i = 0
    while i < 1000:
        lock m:
            i += 1
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := core.Run(prog, core.Config{Stdout: &out}); err != nil {
			b.Fatal(err)
		}
	}
}

// Compiler-stage microbenchmarks on the Figure II program.
func BenchmarkLexer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lexer.Tokens("f2.ttr", figure2Src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("f2.ttr", figure2Src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse("f2.ttr", figure2Src)
		if err != nil {
			b.Fatal(err)
		}
		if err := check.Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBytecodeCompile(b *testing.B) {
	prog, err := core.Compile("f2.ttr", figure2Src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bytecode.Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// Embedding-path benchmark through the public facade.
func BenchmarkPublicCall(b *testing.B) {
	prog, err := tetra.Compile("fact.ttr", `def fact(x int) int:
    if x == 0:
        return 1
    return x * fact(x - 1)
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := prog.Call("fact", tetra.Int(15))
		if err != nil || v.Int() == 0 {
			b.Fatal(err)
		}
	}
}
