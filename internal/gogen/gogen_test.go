package gogen

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/interp"
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
	goSrc := generate(t, src)
	root := moduleRoot(t)
	dir, err := os.MkdirTemp(root, ".gogen-test-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(goSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "prog")
	cmd := exec.Command("go", "build", "-o", exe, "./"+filepath.Base(dir))
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build of the generated program: %v\n%s\n%s", err, out, goSrc)
	}
	return exe
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
    print(z)
`)
	for _, want := range []string{
		"package main",
		"gort.InitGuard()",
		"gort.InitLocks(1)",
		"gort.Catch(func() { t_main(1) })",
		"gort.Enter(gdepth)",
		"var wg sync.WaitGroup",
		"gort.Par(&wg, func() {",
		"wg.Wait()",
		"gort.Reraise()",
		"gort.Lock(0)",
		"gort.Unlock(0)",
		"gort.Print(",
	} {
		if !strings.Contains(goSrc, want) {
			t.Errorf("generated source missing %q:\n%s", want, goSrc)
		}
	}
}

func TestNoSyncImportWithoutParallel(t *testing.T) {
	goSrc := generate(t, "def main():\n    print(1)\n")
	if strings.Contains(goSrc, `"sync"`) {
		t.Error("sync imported for sequential program")
	}
}

// TestGeneratedPrograms compiles and executes a semantic corpus natively,
// checking exact output equality with the interpreter's expected results.
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runGenerated(t, c.src, c.input)
			if err != nil {
				t.Fatalf("generated program failed: %v", err)
			}
			if got != c.want {
				t.Errorf("output = %q, want %q", got, c.want)
			}
		})
	}
}

func TestGeneratedRuntimeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	cases := []struct{ name, src, substr string }{
		{"bounds", "def main():\n    a = [1]\n    print(a[5])\n", "index 5 out of range"},
		{"bounds_unassigned", "def main():\n    c = 1\n    if c > 2:\n        a = [1, 2]\n    print(a[0])\n", "index 0 out of range for array of length 0"},
		{"div_zero", "def main():\n    x = 0\n    print(1 / x)\n", "division by zero"},
		{"real_div_zero", "def main():\n    x = 0.0\n    print(1.5 / x)\n", "division by zero"},
		{"real_mod_zero", "def main():\n    x = 0.0\n    print(1.5 % x)\n", "modulo by zero"},
		{"to_int_out_of_range", "def main():\n    print(to_int(1.0e30))\n", "runtime error: to_int: real 1e+30 out of int range"},
		{"floor_out_of_range", "def main():\n    print(floor(1.0e30))\n", "runtime error: floor: real 1e+30 out of int range"},
		{"ceil_out_of_range", "def main():\n    print(ceil(-1.0e30))\n", "runtime error: ceil: real -1e+30 out of int range"},
		{"to_int_nan", "def main():\n    print(to_int(sqrt(0.0 - 1.0)))\n", "runtime error: to_int: real nan out of int range"},
		{"return_in_lock_releases", `def f() int:
    lock m:
        return 1

def main():
    print(f())
    lock m:
        print(2)
`, ""}, // must terminate (the early return released m) and print 1, 2
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := runGenerated(t, c.src, "")
			if c.substr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				if out != "1\n2\n" {
					t.Errorf("output = %q", out)
				}
				return
			}
			if err == nil {
				t.Fatal("expected runtime failure")
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not contain %q", err, c.substr)
			}
		})
	}
}

// TestGeneratedGoldenCorpus runs the shared testdata corpus natively.
func TestGeneratedGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated binaries; skipped in -short")
	}
	root := moduleRoot(t)
	dir := filepath.Join(root, "testdata", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		name := entry.Name()
		if !strings.HasSuffix(name, ".ttr") {
			continue
		}
		base := strings.TrimSuffix(name, ".ttr")
		t.Run(base, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, base+".out"))
			if err != nil {
				t.Fatal(err)
			}
			input := ""
			if data, err := os.ReadFile(filepath.Join(dir, base+".in")); err == nil {
				input = string(data)
			}
			got, err := runGenerated(t, string(src), input)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got != string(want) {
				t.Errorf("output:\n%s\nwant:\n%s", got, want)
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
