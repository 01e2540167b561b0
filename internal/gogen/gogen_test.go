package gogen

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/interp"
	"repro/internal/parity"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/stdlib"
	"repro/internal/types"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("gen.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// generate produces Go source for src.
func generate(t *testing.T, src string) string {
	t.Helper()
	goSrc, err := Generate(compile(t, src))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return goSrc
}

// moduleRoot walks up to the directory containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}

// buildGenerated compiles src to Go and builds it inside the module
// (generated code imports repro/internal/gort and sem), returning the
// binary.
func buildGenerated(t *testing.T, src string) string {
	t.Helper()
	return filepath.Join(buildAll(t, map[string]string{"prog": src}, false), "prog")
}

// buildAll compiles each program of progs, by name, and builds them all
// with one go build, which compiles the shared runtime once and links the
// binaries in parallel. It returns the directory holding the binaries, each
// under its program's name. With race they are race-detector builds.
func buildAll(t *testing.T, progs map[string]string, race bool) string {
	t.Helper()
	root := moduleRoot(t)
	dir, err := os.MkdirTemp(root, ".gogen-test-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	if race {
		args = append(args, "-race")
	}
	for name, src := range progs {
		pkg := filepath.Join(dir, name)
		if err := os.Mkdir(pkg, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkg, "main.go"), []byte(generate(t, src)), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "./"+filepath.Join(filepath.Base(dir), name))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build of the generated programs: %v\n%s", err, out)
	}
	return bin
}

// raceFree fails t when err, a run's failure, is a report of the race
// detector.
func raceFree(t *testing.T, err error) {
	t.Helper()
	var re *runError
	if errors.As(err, &re) && strings.Contains(re.stderr, "DATA RACE") {
		t.Fatalf("the race detector reports a data race:\n%s", re.stderr)
	}
}

// runBinary runs a built program with the given stdin and extra environment
// (the guard knobs the native tier derives from request limits) and
// returns stdout.
func runBinary(exe, input string, extraEnv []string) (string, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stdin = strings.NewReader(input)
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		return out.String(), &runError{stderr: errOut.String(), err: err}
	}
	return out.String(), nil
}

// runGenerated builds src natively and runs it with the given stdin.
func runGenerated(t *testing.T, src, input string) (string, error) {
	t.Helper()
	return runBinary(buildGenerated(t, src), input, nil)
}

type runError struct {
	stderr string
	err    error
}

func (e *runError) Error() string { return e.err.Error() + ": " + e.stderr }

func (e *runError) Unwrap() error { return e.err }

func TestGenerateRequiresMain(t *testing.T) {
	prog := compile(t, "def f():\n    pass\n")
	if _, err := Generate(prog); err == nil {
		t.Error("missing main not rejected")
	}
}

func TestGeneratedSourceShape(t *testing.T) {
	goSrc := generate(t, `def main():
    parallel:
        x = 1
        y = 2
    lock m:
        z = x + y
    print(z, flat(3))

def flat(n int) int:
    s = 0
    for i in range(n):
        s += i
    return s
`)
	// A flat function's locals stay in registers: nothing takes their
	// address. A function with a parallel construct shares the variables
	// its threads write in cells, and keeps the rest (z) as plain locals.
	flat := goSrc[strings.Index(goSrc, "func t_flat("):]
	for _, want := range []string{"var v1_s int64\n\t_ = v1_s\n", "var v2_i int64\n\t_ = v2_i\n"} {
		if !strings.Contains(flat, want) {
			t.Errorf("flat function missing %q:\n%s", want, flat)
		}
	}
	if strings.Contains(flat, "_ = &") {
		t.Errorf("flat function takes a local's address:\n%s", flat)
	}

	for _, want := range []string{
		"package main",
		`gort.Main("gen.ttr", []string{"m"}, func(t *gort.Thread) { t_main(t, 1) })`,
		"func t_main(t *gort.Thread, gdepth int) {",
		"gort.Enter(gdepth)",
		"var v0_x gort.Cell[int64]",
		"gort.Parallel(t, 2, 5,\n\t\tfunc(t *gort.Thread) {\n\t\t\tv0_x.Store(int64(1))\n\t\t},",
		"gort.Lock(t, 0, 5, 5)",
		"v2_z = ((v0_x.Load()) + (v1_y.Load()))",
		"gort.Unlock(t, 0)",
		"var v2_z int64\n\t_ = v2_z\n",
		"gort.Print(v2_z, t_flat(t, gdepth+1, int64(3)))",
	} {
		if !strings.Contains(goSrc, want) {
			t.Errorf("generated source missing %q:\n%s", want, goSrc)
		}
	}

	// The benchmark's locked_max shape: the threads only read n, a, x, i
	// and best, and write best's element, so nothing is a cell.
	lockedMax := generate(t, `def main():
    n = 50
    a = range(n)
    x = 7
    i = 0
    while i < n:
        x = (x * 31 + 11) % 1000
        a[i] = x
        i += 1
    best = [0]
    parallel for v in a:
        lock maxlock:
            if v > best[0]:
                best[0] = v
    print(best[0])
`)
	if strings.Contains(lockedMax, "gort.Cell") || strings.Contains(lockedMax, "_ = &") {
		t.Errorf("locked_max declares a cell:\n%s", lockedMax)
	}
	// racy_counter's count is written by every iteration: still a cell.
	racy := generate(t, "def main():\n    count = 0\n    parallel for i in [1 .. 8]:\n        count += 1\n    print(count)\n")
	if !strings.Contains(racy, "var v0_count gort.Cell[int64]\n\t_ = &v0_count\n") {
		t.Errorf("racy_counter's count is not a cell:\n%s", racy)
	}
}

// TestGeneratedCodeNeverImportsSync: every spawn and lock goes through
// gort to the run's rt.Runtime, so generated code has no use for sync.
func TestGeneratedCodeNeverImportsSync(t *testing.T) {
	goSrc := generate(t, `def main():
    n = 0
    parallel:
        n += 1
        n += 2
    background:
        print(n)
    parallel for i in [1 .. 4]:
        lock m:
            n += i
`)
	if strings.Contains(goSrc, `"sync"`) || strings.Contains(goSrc, "sync.") {
		t.Errorf("generated code uses sync:\n%s", goSrc)
	}
}

// TestGeneratedPrograms compiles and executes a semantic corpus natively,
// built with one go build, checking exact output equality with the
// interpreter's expected results.
func TestGeneratedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := []struct{ name, src, input, want string }{
		{
			// Variables assigned only on a branch not taken read as the zero
			// of their type, as on the engines (ast.FuncDecl.ZeroSlots).
			name: "unassigned_reads_zero",
			src: `def main():
    c = 1
    if c > 2:
        x = 5
        r = 2.5
        s = "a"
        a = [1, 2]
    for i in range(0):
        pass
    print(x + 1, " ", x, " ", r, " ", s + "b", " ", a, len(a), " ", i)
`,
			want: "1 0 0.0 b []0 0\n",
		},
		{
			name: "figure1",
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
			name: "figure2",
			src: `def sumr(nums [int], a int, b int) int:
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
`,
			want: "5050\n",
		},
		{
			name: "figure3",
			src: `def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max([18, 32, 96, 48, 60]))
`,
			want: "96\n",
		},
		{
			name: "mixed_semantics",
			src: `def main():
    print(7 / 2, " ", 7.0 / 2, " ", 7 % 3, " ", 7.5 % 2)
    a = [1.0, 2]
    a[0] = 5
    print(a, " ", a == [5.0, 2.0])
    s = "ab" + "cd"
    print(s[2], " ", len(s), " ", s < "b")
    print(sort([3, 1, 2]), " ", join(split("c,a", ","), "+"))
    print(min(3, 1), " ", max(1, 2.5), " ", floor(3.9), " ", abs(-4))
    r = 1.5
    r = 2
    print(r)
`,
			want: "3 3.5 1 1.5\n[5.0, 2.0] true\nc 4 true\n[1, 2, 3] c+a\n1 2.5 3 4\n2.0\n",
		},
		{
			name: "control_flow",
			src: `def main():
    total = 0
    for i in [1 .. 20]:
        if i % 3 == 0:
            continue
        if i > 15:
            break
        total += i
    w = 0
    while true:
        w += 1
        if w == 5:
            break
    print(total, " ", w)
`,
			want: "75 5\n",
		},
		{
			name: "parallel_map_and_locks",
			src: `def cube(x int) int:
    return x * x * x

def main():
    n = 8
    out = range(n)
    parallel for i in range(n):
        out[i] = cube(i)
    count = 0
    parallel for i in range(20):
        lock c:
            count += 1
    print(out, " ", count)
`,
			want: "[0, 1, 8, 27, 64, 125, 216, 343] 20\n",
		},
		{
			name: "strings_and_iteration",
			src: `def main():
    out = ""
    for c in "abc":
        out = c + out
    print(out, " ", to_upper(out), " ", reverse(out))
`,
			want: "cba CBA abc\n",
		},
		{
			name: "background",
			src: `def fill(a [int], i int):
    a[i] = i + 1

def main():
    a = [0, 0]
    background:
        fill(a, 0)
        fill(a, 1)
    sleep(50)
    print(a)
`,
			want: "[1, 2]\n",
		},
		// An operator on literals that overflows wraps (int) or reaches inf
		// (real) as on the engines; written as a Go constant expression it
		// would not compile.
		{name: "int_overflow_constants", src: "def main():\n    print(9223372036854775807 + 1)\n", want: "-9223372036854775808\n"},
		{name: "real_overflow_constants", src: "def main():\n    print(1e300 * 1e10)\n", want: "inf\n"},
		{name: "negated_min_int_constant", src: "def main():\n    print(-(-9223372036854775807 - 1))\n", want: "-9223372036854775808\n"},
	}
	progs := make(map[string]string, len(cases))
	for _, c := range cases {
		progs[c.name] = c.src
	}
	bin := buildAll(t, progs, false)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runBinary(filepath.Join(bin, c.name), c.input, nil)
			if err != nil {
				t.Fatalf("generated program failed: %v", err)
			}
			if got != c.want {
				t.Errorf("output = %q, want %q", got, c.want)
			}
		})
	}
}

// TestGeneratedRuntimeErrors: a runtime error fails a compiled program as
// it fails the engines, with the diagnostic on stderr and exit status 1.
// The programs are built with one go build.
// The rows with a pattern are answered by rt, in well under a second: the
// deadlock of testdata/deadlock_ab.ttr (either thread may close the cycle),
// an error under a lock another thread waits for, and a thread-budget
// refusal positioned at the parallel block, as the VM positions it.
func TestGeneratedRuntimeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	deadlockAB, err := os.ReadFile(filepath.Join(moduleRoot(t), "testdata", "deadlock_ab.ttr"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src, substr string
		pattern           string // when set, stderr must match it
		env               []string
	}{
		{name: "bounds", src: "def main():\n    a = [1]\n    print(a[5])\n", substr: "index 5 out of range"},
		{name: "bounds_unassigned", src: "def main():\n    c = 1\n    if c > 2:\n        a = [1, 2]\n    print(a[0])\n", substr: "index 0 out of range for array of length 0"},
		{name: "div_zero", src: "def main():\n    x = 0\n    print(1 / x)\n", substr: "division by zero"},
		{name: "real_div_zero", src: "def main():\n    x = 0.0\n    print(1.5 / x)\n", substr: "division by zero"},
		{name: "real_mod_zero", src: "def main():\n    x = 0.0\n    print(1.5 % x)\n", substr: "modulo by zero"},
		{name: "to_int_out_of_range", src: "def main():\n    print(to_int(1.0e30))\n", substr: "runtime error: to_int: real 1e+30 out of int range"},
		{name: "floor_out_of_range", src: "def main():\n    print(floor(1.0e30))\n", substr: "runtime error: floor: real 1e+30 out of int range"},
		{name: "ceil_out_of_range", src: "def main():\n    print(ceil(-1.0e30))\n", substr: "runtime error: ceil: real -1e+30 out of int range"},
		{name: "to_int_nan", src: "def main():\n    print(to_int(sqrt(0.0 - 1.0)))\n", substr: "runtime error: to_int: real nan out of int range"},
		{name: "return_in_lock_releases", src: `def f() int:
    lock m:
        return 1

def main():
    print(f())
    lock m:
        print(2)
`}, // must terminate (the early return released m) and print 1, 2
		{name: "deadlock_ab", src: string(deadlockAB),
			pattern: `^gen\.ttr:(5|11):9: runtime error: deadlock detected: thread \d waits for lock "\w" held by thread \d; thread \d waits for lock "\w" held by thread \d\n$`},
		{name: "error_in_lock", src: `def worker(k int):
    sleep(50 * k)
    lock a:
        print(10 / k)

def main():
    parallel:
        worker(0)
        worker(1)
`, pattern: "^runtime error: division by zero\n$", env: []string{"TETRA_TIMEOUT=1s"}},
		{name: "max_threads", src: "def main():\n    print(\"start\")\n    parallel:\n        print(\"a\")\n        print(\"b\")\n",
			pattern: `^gen\.ttr:3:5: runtime error: exceeded thread budget \(1 live threads\)\n$`, env: []string{"TETRA_MAX_THREADS=1"}},
	}
	progs := make(map[string]string, len(cases))
	for _, c := range cases {
		progs[c.name] = c.src
	}
	bin := buildAll(t, progs, false)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			out, err := runBinary(filepath.Join(bin, c.name), "", c.env)
			if d := time.Since(start); c.pattern != "" && d > time.Second {
				t.Errorf("took %v", d)
			}
			if c.substr == "" && c.pattern == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				if out != "1\n2\n" {
					t.Errorf("output = %q", out)
				}
				return
			}
			var re *runError
			var exit *exec.ExitError
			if !errors.As(err, &re) || !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want a runtime failure with exit status 1, got %v (stdout %q)", err, out)
			}
			if strings.Contains(re.stderr, "fatal error") {
				t.Errorf("the Go runtime died:\n%s", re.stderr)
			}
			if !strings.Contains(re.stderr, c.substr) || c.pattern != "" && !regexp.MustCompile(c.pattern).MatchString(re.stderr) {
				t.Errorf("stderr %q does not contain %q or match %q", re.stderr, c.substr, c.pattern)
			}
		})
	}
}

// TestGeneratedKernelEdges pins the edges of the checked kernels whose
// fast path inlines into generated code: a division by -1 that wraps, a
// negative index that counts from the end, an index out of range either
// side, and a zero divisor written as a literal, which must stay a runtime
// error (Go rejects a constant division by zero at compile time); and where
// an int meets a real, that the int operation overflows before its result
// widens, a mixed loop condition, and an int literal zero dividing a real.
// Each program must mean the same on the interpreter, the VM at every
// optimization level and natively, where an operator's error is
// unpositioned. The mixed rows' expectations were recorded before the
// compiler and gogen read the checker's kernel.
func TestGeneratedKernelEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := []edgeCase{
		{name: "min_int_by_minus_one", src: "def main():\n    x = -9223372036854775807 - 1\n    y = -1\n    print(x / y, \" \", x % y, \" \", x / -1, \" \", x % -1)\n",
			stdout: "-9223372036854775808 0 -9223372036854775808 0\n"},
		{name: "negative_index", src: "def main():\n    a = [1, 2, 3]\n    print(a[-1])\n    a[-3] = 9\n    a[-2] += 5\n    print(a)\n",
			stdout: "3\n[9, 7, 3]\n"},
		{name: "read_past_end", src: "def main():\n    a = [1, 2, 3]\n    print(\"before\")\n    print(a[3])\n",
			stdout: "before\n", err: "edges.ttr:4:11: runtime error: index 3 out of range for array of length 3"},
		{name: "write_before_start", src: "def main():\n    a = [1, 2, 3]\n    a[-4] = 1\n",
			err: "edges.ttr:3:5: runtime error: index -4 out of range for array of length 3"},
		{name: "mod_literal_zero", src: "def main():\n    x = 5\n    print(x % 0)\n",
			err: "edges.ttr:3:13: runtime error: modulo by zero"},
		{name: "div_literal_zero", src: "def main():\n    print(1 / 0)\n",
			err: "edges.ttr:2:13: runtime error: division by zero"},
		{name: "real_div_literal_zero", src: "def main():\n    x = 1.5\n    print(x / 0.0)\n",
			err: "edges.ttr:3:13: runtime error: division by zero"},
		{name: "overflow_before_widening", src: "def main():\n    big = 9223372036854775807\n    print((big + 1) * 1.5, \" \", big * 2 + 0.5)\n    x = 1.5\n    x *= big + 1\n    print(x)\n",
			stdout: "-1.3835058055282164e+19 -1.5\n-1.3835058055282164e+19\n"},
		{name: "mixed_loop_condition", src: "def main():\n    lim = 3.5\n    i = 0\n    while i < lim:\n        i += 1\n    print(i)\n    r = 0.5\n    n = 0\n    while r <= 4:\n        r = r * 2\n        n += 1\n    print(r, \" \", n)\n",
			stdout: "4\n8.0 4\n"},
		{name: "real_div_int_literal_zero", src: "def main():\n    r = 7.5\n    print(r / 0)\n",
			err: "edges.ttr:3:13: runtime error: division by zero"},
		{name: "real_mod_int_literal_zero", src: "def main():\n    r = 7.5\n    print(r % 0)\n",
			err: "edges.ttr:3:13: runtime error: modulo by zero"},
	}
	agreeEverywhere(t, "edges.ttr", cases)
}

// edgeCase is a program with what it must print and the error it must end
// with, positioned as the engines position it.
type edgeCase struct{ name, src, stdout, err string }

// agreeEverywhere runs each case on the interpreter, the VM at every
// optimization level and natively, where an error is unpositioned; file is
// the name positions use.
func agreeEverywhere(t *testing.T, file string, cases []edgeCase) {
	t.Helper()
	progs := make(map[string]string, len(cases))
	for _, c := range cases {
		progs[c.name] = c.src
	}
	bin := buildAll(t, progs, false)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parity.Agree(t, parity.Case{Name: c.name, File: file, Src: c.src, Want: &parity.Result{Stdout: c.stdout, Err: c.err}})
			got, err := runBinary(filepath.Join(bin, c.name), "", nil)
			if got != c.stdout {
				t.Errorf("native stdout %q, want %q", got, c.stdout)
			}
			if c.err == "" {
				if err != nil {
					t.Errorf("native run failed: %v", err)
				}
				return
			}
			var re *runError
			var exit *exec.ExitError
			want := c.err[strings.Index(c.err, "runtime error: "):] + "\n"
			if !errors.As(err, &re) || !errors.As(err, &exit) || exit.ExitCode() != 1 || re.stderr != want {
				t.Errorf("native run: %v; want exit status 1 and stderr %q", err, want)
			}
		})
	}
}

// TestGeneratedGoldenCorpus runs the shared golden corpus natively, built
// by this package alone, so that a gogen regression is named here rather
// than as a promotion failure behind tetrad's native door. Under -race the
// binaries are race-detector builds, and a report fails the program.
//
// Two more programs share a variable between threads: the paper's Figure 3
// and an unlocked counter. It is a cell, as on the engines, so neither
// races; the counter may lose updates (DESIGN §1). They run one iteration a
// chunk on eight workers, which spreads the iterations over goroutines.
func TestGeneratedGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := parity.Corpus(t)
	progs := make(map[string]string, len(cases))
	for _, c := range cases {
		progs[c.Name] = c.Src
	}
	shared := map[string]*regexp.Regexp{"figure3_max": regexp.MustCompile(`^96\n$`), "racy_counter": regexp.MustCompile(`^[1-8]\n$`)}
	for name := range shared {
		src, err := os.ReadFile(filepath.Join(moduleRoot(t), "testdata", name+".ttr"))
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = string(src)
	}
	bin := buildAll(t, progs, raceEnabled)
	for name, want := range shared {
		t.Run(name, func(t *testing.T) {
			got, err := runBinary(filepath.Join(bin, name), "", []string{"TETRA_WORKERS=8", "TETRA_GRAIN=1"})
			raceFree(t, err)
			if err != nil || !want.MatchString(got) {
				t.Errorf("output %q, err %v; want %v", got, err, want)
			}
		})
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			got, err := runBinary(filepath.Join(bin, c.Name), c.Stdin, nil)
			raceFree(t, err)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got != c.Want.Stdout {
				t.Errorf("output:\n%s\nwant:\n%s", got, c.Want.Stdout)
			}
		})
	}
}

// TestGeneratedRacyCells runs the racy corpus's shared-variable cases as
// compiled programs, on eight workers one iteration a chunk: a gort.Cell
// is one atomic word, so no read is torn and a -race build reports no race.
func TestGeneratedRacyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := parity.Racy(true)
	progs := make(map[string]string, len(cases))
	for _, c := range cases {
		progs[c.Name] = c.Src
	}
	bin := buildAll(t, progs, raceEnabled)
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			got, err := runBinary(filepath.Join(bin, c.Name), "", []string{"TETRA_WORKERS=8", "TETRA_GRAIN=1"})
			raceFree(t, err)
			if err != nil || got != c.Want.Stdout {
				t.Errorf("output %q, err %v; want %q", got, err, c.Want.Stdout)
			}
		})
	}
}

// TestGenerateIsDeterministic anchors the native tier's artifact cache:
// promoted binaries are content-addressed by the hash of the generated
// source, so emission must be byte-stable across calls and across
// independent compiles of the same program.
func TestGenerateIsDeterministic(t *testing.T) {
	src := `def work(n int) int:
    s = 0
    for i in range(n):
        s = s + i
    return s

def main():
    parallel:
        a = work(10)
        b = work(20)
    lock m:
        c = a + b
    print(c, " ", "x" + "y")
`
	first := generate(t, src)
	for i := 0; i < 3; i++ {
		if again := generate(t, src); again != first {
			t.Fatalf("emission drifted on call %d:\n--- first ---\n%s\n--- again ---\n%s", i, first, again)
		}
	}
	// Across an independent front-end compile too.
	if again, err := Generate(compile(t, src)); err != nil || again != first {
		t.Fatalf("emission differs across compiles (err=%v)", err)
	}
}

// TestGeneratedAllocBudget: the TETRA_MAX_ALLOC knob must govern
// generated binaries — the native tier derives it from the request's
// limits, closing the gap where compiled programs ran unmetered.
func TestGeneratedAllocBudget(t *testing.T) {
	src := `def main():
    a = range(1000)
    print(len(a))
`
	exe := buildGenerated(t, src)
	out, err := runBinary(exe, "", []string{"TETRA_MAX_ALLOC=100"})
	if err == nil {
		t.Fatalf("alloc budget never tripped; stdout %q", out)
	}
	var re *runError
	if !errors.As(err, &re) || !strings.Contains(re.stderr, "allocation budget") {
		t.Fatalf("wrong failure: %v", err)
	}
	// Generous budget: runs fine.
	out, err = runBinary(exe, "", []string{"TETRA_MAX_ALLOC=10000"})
	if err != nil || out != "1000\n" {
		t.Fatalf("within budget: out %q err %v", out, err)
	}
}

// TestGeneratedAllocBudgetCountsLibraryCalls is the compiled side of
// rt.TestRuntimeContractOnEveryEngine's alloc_budget rows: what a library
// call builds is charged, so each arm — picked by the number on stdin —
// builds far more than the budget and ends in the engines' diagnostic.
func TestGeneratedAllocBudgetCountsLibraryCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a generated binary; skipped in -short")
	}
	exe := buildGenerated(t, `def main():
    arm = read_int()
    i = 0
    if arm == 1:
        a = [0]
        while i < 100000:
            push(a, i)
            i += 1
    elif arm == 2:
        t = repeat(repeat("ab", 1000), 1000)
    elif arm == 3:
        s = repeat("a ", 500)
        while i < 100:
            s = join(split(s, " "), " ")
            i += 1
    elif arm == 4:
        while i < 100000:
            s = to_string(i)
            i += 1
    elif arm == 5:
        b = sort(range(4000))
    print("within budget")
`)
	for arm, name := range []string{"nothing", "push", "repeat", "split_join", "to_string", "sort"} {
		out, err := runBinary(exe, fmt.Sprintln(arm), []string{"TETRA_MAX_ALLOC=5000"})
		if arm == 0 {
			if err != nil || out != "within budget\n" {
				t.Errorf("no arm taken: out %q err %v", out, err)
			}
			continue
		}
		var re *runError
		if !errors.As(err, &re) || re.stderr != "runtime error: exceeded allocation budget (5000 cells)\n" {
			t.Errorf("%s: out %q err %v, want the allocation budget's diagnostic", name, out, err)
		}
	}
}

// genericCalls are the argument lists TestEveryBuiltinCompilesNatively
// gives the variadic and generic builtins: one for each native form gogen
// picks from the argument types. pr and pi are a [real] and an [int].
var genericCalls = map[string][]string{
	"print":     {`1, " ", 2.5, " ", true, " ", [1, 2], " ", ["a"], " ", "s"`, ``},
	"len":       {`"héllo"`, `[1, 2, 3]`},
	"range":     {`3`, `2, 5`},
	"abs":       {`-3`, `-2.5`},
	"min":       {`3, 1, 2`, `3, 1.5`},
	"max":       {`3, 1, 2`, `n, 1.5, 1`},
	"to_string": {`42`, `2.0`, `true`, `"s"`, `[1.5, 2]`},
	"to_int":    {`7`, `2.7`, `-2.7`, `true`, `" 42 "`},
	"to_real":   {`7`, `2.5`, `"2.5"`},
	"sort":      {`[3, 1, 2]`, `[2.5, 1]`, `["b", "a"]`},
	"push":      {`pr, 2`, `pr, 2.5`, `pi, 3`},
}

// everyBuiltinProgram walks the table and writes one program that calls
// every row: a fixed row with arguments of its parameter types — where a
// parameter is real, once with an int variable, which the call site must
// widen, and once with 2.5 — and a generic row once per genericCalls entry.
func everyBuiltinProgram(t *testing.T) string {
	var sb strings.Builder
	sb.WriteString("def main():\n    n = 2\n    pr = [1.5]\n    pi = [1]\n")
	for id := 0; id < stdlib.NumBuiltins; id++ {
		b := stdlib.ByID(id)
		calls := genericCalls[b.Name]
		if b.Check == nil {
			args := make([]string, len(b.Params))
			for i, p := range b.Params {
				switch {
				case p.Kind() == types.Int:
					args[i] = fmt.Sprint(i)
				case p.Kind() == types.Real:
					args[i] = "n"
				case p.Kind() == types.String && i == 0:
					args[i] = `" ab cd "`
				case p.Kind() == types.String:
					args[i] = `" "`
				case types.Equal(p, types.ArrayOf(types.StringType)):
					args[i] = `["ab", "cd"]`
				default:
					t.Fatalf("%s: no argument for a parameter of type %s", b.Name, p)
				}
			}
			calls = []string{strings.Join(args, ", ")}
			if slices.Contains(args, "n") {
				calls = append(calls, strings.ReplaceAll(calls[0], "n", "2.5"))
			}
		} else if calls == nil {
			t.Fatalf("%s is generic: give it argument lists in genericCalls", b.Name)
		}
		for _, args := range calls {
			result, err := b.Signature(argTypes(t, args))
			switch {
			case err != nil:
				t.Fatalf("%s(%s): %v", b.Name, args, err)
			case result == nil:
				fmt.Fprintf(&sb, "    %s(%s)\n", b.Name, args)
			case b.ID == stdlib.TimeMS:
				fmt.Fprintf(&sb, "    print(%s(%s) > 0)\n", b.Name, args)
			default:
				fmt.Fprintf(&sb, "    print(%s(%s))\n", b.Name, args)
			}
		}
	}
	sb.WriteString("    print(pr, pi)\n")
	return sb.String()
}

// argTypes types an argument list of everyBuiltinProgram by checking it
// inside that program's prologue.
func argTypes(t *testing.T, args string) []*types.Type {
	t.Helper()
	prog := compile(t, "def main():\n    n = 2\n    pr = [1.5]\n    pi = [1]\n    print("+args+")\n")
	body := prog.Lookup("main").Body.Stmts
	call := body[len(body)-1].(*ast.ExprStmt).X.(*ast.CallExpr)
	out := make([]*types.Type, len(call.Args))
	for i, a := range call.Args {
		out[i] = a.Type()
	}
	return out
}

// TestEveryBuiltinCompilesNatively is what stands where gogen's "builtin
// not supported" error stood: no row of the table is without a native form,
// and every form means what the row's Eval means. One program that calls
// every builtin runs on the interpreter, the VM at -O0 and -O2 (verified
// after every optimizer phase) and as a compiled binary; the four outputs
// must be the same bytes.
func TestEveryBuiltinCompilesNatively(t *testing.T) {
	src := everyBuiltinProgram(t)
	const input = "7 2.5\nhello world\ntrue\n"
	prog := compile(t, src)
	var want bytes.Buffer
	if err := interp.New(prog, rt.Config{Stdin: strings.NewReader(input), Stdout: &want}).Run(); err != nil {
		t.Fatalf("interp: %v\n%s", err, src)
	}
	if lines := strings.Count(want.String(), "\n"); lines < stdlib.NumBuiltins {
		t.Fatalf("%d lines of output for %d builtins:\n%s", lines, stdlib.NumBuiltins, want.String())
	}
	for _, level := range []int{bytecode.O0, bytecode.O2} {
		bc, err := bytecode.Compile(compile(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := bytecode.VerifyOptimize(bc, level); err != nil {
			t.Fatalf("-O%d: %v\n%s", level, err, src)
		}
		var got bytes.Buffer
		if err := vm.New(bc, rt.Config{Stdin: strings.NewReader(input), Stdout: &got}).Run(); err != nil {
			t.Fatalf("vm -O%d: %v", level, err)
		}
		if got.String() != want.String() {
			t.Errorf("vm -O%d:\n%s\ninterp:\n%s", level, got.String(), want.String())
		}
	}
	if testing.Short() {
		t.Skip("the native run builds a generated binary; skipped in -short")
	}
	got, err := runGenerated(t, src, input)
	if err != nil {
		t.Fatalf("native: %v\n%s", err, src)
	}
	if got != want.String() {
		t.Errorf("native:\n%s\ninterp:\n%s\nprogram:\n%s", got, want.String(), src)
	}
}

// TestGeneratedCallEdges pins what a call means where -O2 inlines a small
// leaf or runs a self tail call in place: the recursion bound's error and
// its position, a leaf's runtime error at the leaf's position, a
// value-returning leaf that falls off its end, a zero array made fresh on
// every call, and a tail-recursive function whose variables a background
// block shares. Each program must mean the same on the interpreter, the VM
// at every optimization level and natively (where an error is
// unpositioned). The expectations were recorded before -O2 inlined or
// replaced a call.
func TestGeneratedCallEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := []edgeCase{
		{name: "tail_recursion_depth", src: `def count(n int, acc int) int:
    if n == 0:
        return acc
    return count(n - 1, acc + 1)

def tick(n int):
    if n == 0:
        print("done")
        return
    tick(n - 1)

def main():
    print(count(9990, 0))
    tick(9990)
    print(count(20000, 0))
`, stdout: "9990\ndone\n", err: "calls.ttr:4:12: runtime error: call stack exhausted (recursion deeper than 10000)"},
		{name: "void_tail_recursion_depth", src: `def tick(n int):
    if n == 0:
        print("done")
        return
    tick(n - 1)

def main():
    tick(20000)
`, stdout: "", err: "calls.ttr:5:5: runtime error: call stack exhausted (recursion deeper than 10000)"},
		{name: "leaf_at_depth_bound", src: `def leaf(x int) int:
    return x + 1

def down(n int) int:
    if n == 0:
        return leaf(n)
    return down(n - 1) + 1

def main():
    print(down(100))
    print(down(9998))
`, stdout: "101\n", err: "calls.ttr:6:16: runtime error: call stack exhausted (recursion deeper than 10000)"},
		{name: "leaf_division_by_zero", src: `def ratio(a int, b int) int:
    return a / b

def main():
    print(ratio(7, 2))
    print(ratio(1, 0))
`, stdout: "3\n", err: "calls.ttr:2:14: runtime error: division by zero"},
		{name: "leaf_falls_off_its_end", src: `def pick(x int) int:
    if x > 0:
        return x

def name(x int) string:
    if x > 0:
        return "pos"

def some(x int) [int]:
    if x > 0:
        return [x]

def main():
    print(pick(3), " ", pick(-1), " ", name(1), name(-1), " ", some(2), some(-2), len(some(-2)))
`, stdout: "3 0 pos [2][]0\n"},
		{name: "leaf_returns_from_its_loop", src: `def first(a [int]) int:
    for x in a:
        return x

def initial(s string) string:
    for c in s:
        return c

def main():
    w = "ab"
    print(first([4, 5]), " ", first([]), " ", initial(w), initial(""), " ", w)
`, stdout: "4 0 a ab\n"},
		{name: "leaf_zero_array_is_fresh", src: `def fresh(c int) [int]:
    if c > 5:
        a = [c]
    return a

def main():
    x = fresh(0)
    y = fresh(0)
    push(x, 1)
    i = 0
    while i < 3:
        z = fresh(i)
        push(z, i)
        print(z)
        i += 1
    print(len(x), " ", len(y), " ", x, y)
`, stdout: "[0]\n[1]\n[2]\n1 0 [1][]\n"},
		{name: "tail_recursion_shares_with_background", src: `def walk(n int, acc int) int:
    if n == 0:
        return acc
    background:
        seen = n + acc
    n = n - 1
    return walk(n, acc + n + 1)

def main():
    print(walk(200, 0))
`, stdout: "20100\n"},
	}
	agreeEverywhere(t, "calls.ttr", cases)
}
