package tetra_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/tetra"
)

// The facade's configuration and the pipeline's are one type: a run is
// described once.
var _ core.Config = tetra.Config{}

// runProgram compiles and runs source, returning its output.
func runProgram(t *testing.T, src, input string) string {
	t.Helper()
	prog, err := tetra.Compile("test.ttr", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	if err := prog.Run(tetra.Config{Stdin: strings.NewReader(input), Stdout: &out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// The three figures of the paper, verbatim semantics.

func TestFigure1Factorial(t *testing.T) {
	src := `def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print("enter n: ")
    n = read_int()
    print(n, "! = ", fact(n))
`
	got := runProgram(t, src, "10\n")
	if got != "enter n: \n10! = 3628800\n" {
		t.Errorf("output = %q", got)
	}
}

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
	if got := runProgram(t, src, ""); got != "5050\n" {
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
	for i := 0; i < 10; i++ {
		if got := runProgram(t, src, ""); got != "96\n" {
			t.Fatalf("output = %q", got)
		}
	}
}

func TestCompileError(t *testing.T) {
	_, err := tetra.Compile("bad.ttr", "def main():\n    print(undefined_var)\n")
	if err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Errorf("err = %v", err)
	}
	_, err = tetra.Compile("bad.ttr", "def main(:\n")
	if err == nil || !strings.Contains(err.Error(), "syntax error") {
		t.Errorf("err = %v", err)
	}
}

func TestCallWithValues(t *testing.T) {
	prog, err := tetra.Compile("lib.ttr", `def weighted(xs [real], ws [real]) real:
    total = 0.0
    i = 0
    while i < len(xs):
        total += xs[i] * ws[i]
        i += 1
    return total

def shout(s string) string:
    return to_upper(s) + "!"

def all_true(bs [int]) bool:
    for b in bs:
        if b == 0:
            return false
    return true
`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Call("weighted", tetra.RealArray(1, 2, 3), tetra.RealArray(0.5, 0.25, 0.25))
	if err != nil || v.Real() != 1.75 {
		t.Errorf("weighted = %v, %v", v, err)
	}
	v, err = prog.Call("shout", tetra.String("go"))
	if err != nil || v.Str() != "GO!" {
		t.Errorf("shout = %v, %v", v, err)
	}
	v, err = prog.Call("all_true", tetra.IntArray(1, 1, 0))
	if err != nil || v.Bool() {
		t.Errorf("all_true = %v, %v", v, err)
	}
	if b := tetra.Bool(true); !b.Bool() {
		t.Error("Bool constructor")
	}
	if sa := tetra.StringArray("a", "b"); sa.Array().Len() != 2 {
		t.Error("StringArray constructor")
	}
	if r := tetra.Real(2.5); r.Real() != 2.5 {
		t.Error("Real constructor")
	}
	if i := tetra.Int(7); i.Int() != 7 {
		t.Error("Int constructor")
	}
}

// A Call that fails deep in a recursion, or at its arguments, leaves the
// program as callable as before.
func TestCallAfterAFailedCall(t *testing.T) {
	prog, err := tetra.Compile("lib.ttr", `def fall(n int, d int) int:
    if n == 0:
        return 10 / d
    return 1 + fall(n - 1, d)

def label(n int) string:
    return to_string(fall(n, 2)) + "!"
`)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		fn   string
		args []tetra.Value
		want string // the result, or the error
	}{
		{"fall", []tetra.Value{tetra.Int(300), tetra.Int(0)}, "lib.ttr:3:19: runtime error: division by zero"},
		{"fall", []tetra.Value{tetra.Int(300), tetra.Int(1)}, "310"},
		{"label", []tetra.Value{tetra.String("3")}, "label: parameter n is int, got string"},
		{"label", []tetra.Value{tetra.Int(4)}, "9!"},
		{"fall", []tetra.Value{tetra.Int(20000), tetra.Int(1)}, "lib.ttr:4:16: runtime error: call stack exhausted (recursion deeper than 10000)"},
		{"fall", []tetra.Value{tetra.Int(9000), tetra.Int(5)}, "9002"},
	}
	for _, c := range calls {
		v, err := prog.Call(c.fn, c.args...)
		got := v.String()
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s%v: %s, want %s", c.fn, c.args, got, c.want)
		}
	}
}

func TestTracerThroughPublicAPI(t *testing.T) {
	prog, err := tetra.Compile("t.ttr", `def main():
    parallel:
        x = 1
        y = 2
    print(x + y)
`)
	if err != nil {
		t.Fatal(err)
	}
	col := tetra.NewCollector()
	var out bytes.Buffer
	if err := prog.Run(tetra.Config{Stdout: &out, Tracer: col}); err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Error("no events collected")
	}
	starts := 0
	for _, e := range col.Events() {
		if e.Kind.String() == "start" {
			starts++
		}
	}
	if starts != 3 {
		t.Errorf("thread starts = %d, want 3", starts)
	}
}

func TestASTAccessor(t *testing.T) {
	prog, err := tetra.Compile("t.ttr", "def main():\n    pass\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.AST() == nil || len(prog.AST().Funcs) != 1 {
		t.Error("AST accessor broken")
	}
}

// TestGoldenCorpus runs every program in testdata/programs on BOTH backends
// and compares against its recorded output.
func TestGoldenCorpus(t *testing.T) {
	dir := filepath.Join("..", "testdata", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, entry := range entries {
		name := entry.Name()
		if !strings.HasSuffix(name, ".ttr") {
			continue
		}
		ran++
		base := strings.TrimSuffix(name, ".ttr")
		t.Run(base, func(t *testing.T) {
			srcPath := filepath.Join(dir, name)
			want, err := os.ReadFile(filepath.Join(dir, base+".out"))
			if err != nil {
				t.Fatalf("missing golden output: %v", err)
			}
			input := ""
			if data, err := os.ReadFile(filepath.Join(dir, base+".in")); err == nil {
				input = string(data)
			}

			prog, err := tetra.CompileFile(srcPath)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := prog.Run(tetra.Config{Stdin: strings.NewReader(input), Stdout: &out}); err != nil {
				t.Fatalf("interp run: %v", err)
			}
			if out.String() != string(want) {
				t.Errorf("interp output:\n%s\nwant:\n%s", out.String(), want)
			}

			// Same program on the VM backend at every optimization level:
			// each must match the golden byte-for-byte.
			for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
				bc, err := core.CompileBytecodeOpt(prog.AST(), level)
				if err != nil {
					t.Fatalf("bytecode at O%d: %v", level, err)
				}
				var vmOut bytes.Buffer
				m := core.NewVM(bc, core.Config{Stdin: strings.NewReader(input), Stdout: &vmOut})
				if err := m.Run(); err != nil {
					t.Fatalf("vm run at O%d: %v", level, err)
				}
				if vmOut.String() != string(want) {
					t.Errorf("vm output at O%d:\n%s\nwant:\n%s", level, vmOut.String(), want)
				}
			}
		})
	}
	if ran < 10 {
		t.Errorf("corpus unexpectedly small: %d programs", ran)
	}
}

// TestDeadlockDiagnosedOnEveryEngine runs the lock-ordering deadlock of
// testdata/deadlock_ab.ttr on the interpreter and on the VM at every
// optimization level: each must refuse the wait that closes the cycle and
// say so, and with detection off each must hang until its deadline.
func TestDeadlockDiagnosedOnEveryEngine(t *testing.T) {
	prog, err := tetra.CompileFile(filepath.Join("..", "testdata", "deadlock_ab.ttr"))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]func(core.Config) error{
		"interp": func(cfg core.Config) error { return core.Run(prog.AST(), cfg) },
	}
	for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
		engines[fmt.Sprintf("vm-O%d", level)] = func(cfg core.Config) error {
			return core.RunVMOpt(prog.AST(), cfg, level)
		}
	}
	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			err := run(core.Config{Stdout: &out})
			if err == nil || !strings.Contains(err.Error(), "deadlock detected: thread") || out.Len() != 0 {
				t.Errorf("err = %v, output %q; want a deadlock diagnosis and no output", err, out.String())
			}
			err = run(core.Config{Stdout: &out, NoDeadlockDetection: true,
				Limits: guard.Limits{Deadline: 300 * time.Millisecond}})
			if err == nil || !strings.Contains(err.Error(), "exceeded deadline") {
				t.Errorf("with detection off err = %v, want the deadline", err)
			}
		})
	}
}

func TestCompileFileMissing(t *testing.T) {
	if _, err := tetra.CompileFile("/nonexistent/path.ttr"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestCompileCache(t *testing.T) {
	cache := tetra.NewCompileCache(0)
	src := "def main():\n    print(6 * 7)\n"

	p1, err := tetra.CompileWithOptions("cached.ttr", src, tetra.CompileOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tetra.CompileWithOptions("cached.ttr", src, tetra.CompileOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if p1.AST() != p2.AST() {
		t.Error("second compile of identical source did not hit the cache")
	}
	stats := cache.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("stats = %+v, want at least one hit and one miss", stats)
	}

	// A different file name is a different program (positions differ).
	p3, err := tetra.CompileWithOptions("other.ttr", src, tetra.CompileOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if p3.AST() == p1.AST() {
		t.Error("distinct file names share one cached program")
	}

	// Compile errors are reported, not cached.
	if _, err := tetra.CompileWithOptions("bad.ttr", "def main(:\n", tetra.CompileOptions{Cache: cache}); err == nil {
		t.Error("expected compile error")
	}
}

func TestRunVMPublicAPI(t *testing.T) {
	cache := tetra.NewCompileCache(0)
	src := "def main():\n    s = 0\n    for x in [1 .. 10]:\n        s += x\n    print(s)\n"

	for _, opt := range []int{tetra.OptFull, tetra.OptNone, 1, 2} {
		prog, err := tetra.CompileWithOptions("vm.ttr", src, tetra.CompileOptions{OptLevel: opt, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := prog.RunVM(tetra.Config{Stdout: &out}); err != nil {
			t.Fatalf("RunVM at opt %d: %v", opt, err)
		}
		if out.String() != "55\n" {
			t.Errorf("RunVM at opt %d: output %q, want \"55\\n\"", opt, out.String())
		}
	}

	// Repeated RunVM through the cache reuses the compiled bytecode.
	prog, err := tetra.CompileWithOptions("vm.ttr", src, tetra.CompileOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	var out bytes.Buffer
	if err := prog.RunVM(tetra.Config{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("RunVM did not hit the bytecode cache: before %+v after %+v", before, after)
	}

	// Without a cache, RunVM still works (compiles on each call).
	plain, err := tetra.Compile("plain.ttr", src)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := plain.RunVM(tetra.Config{Stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "55\n" {
		t.Errorf("uncached RunVM output %q", out.String())
	}
}
