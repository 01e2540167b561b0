package check

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// checked parses and checks src, failing the test on any error.
func checked(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog := mustParse(t, src)
	if err := Check(prog); err != nil {
		t.Fatalf("check: %v\nsource:\n%s", err, src)
	}
	return prog
}

// rejected parses src (which must parse) and asserts checking fails with a
// message containing substr.
func rejected(t *testing.T, src, substr string) {
	t.Helper()
	prog := mustParse(t, src)
	err := Check(prog)
	if err == nil {
		t.Fatalf("check accepted invalid program:\n%s", src)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("check error %q does not contain %q", err, substr)
	}
}

func TestAcceptsValidPrograms(t *testing.T) {
	srcs := []string{
		"def main():\n    pass\n",
		"def main():\n    x = 1\n    y = x + 2\n    print(y)\n",
		"def main():\n    x = 1\n    x = 2\n",                                 // reassignment same type
		"def main():\n    r = 1.5\n    r = 2\n",                               // int into real var widens
		"def f(x real) real:\n    return x\n\ndef main():\n    print(f(3))\n", // int arg to real param
		"def f() real:\n    return 1\n\ndef main():\n    print(f())\n",        // int return widens
		"def main():\n    a = [1, 2, 3]\n    a[0] = 5\n    print(a[0])\n",
		"def main():\n    m = [[1], [2, 3]]\n    print(m[1][0])\n",
		"def main():\n    a = [1, 2.5]\n    print(a)\n", // mixed numeric literal → [real]
		"def main():\n    s = \"a\" + \"b\"\n    print(s[0])\n",
		"def main():\n    for c in \"abc\":\n        print(c)\n",
		"def main():\n    b = 1 < 2 and not false\n    print(b)\n",
		"def main():\n    parallel:\n        x = 1\n        y = 2\n    print(x + y)\n",
		"def main():\n    parallel for i in [1 .. 3]:\n        print(i)\n",
		"def main():\n    background:\n        print(1)\n",
		"def main():\n    lock m:\n        pass\n",
		"def main():\n    while true:\n        break\n",
		"def max(x int) int:\n    return x\n\ndef main():\n    print(max(3))\n", // user fn shadows builtin
		"def main():\n    x = 5\n    x %= 2\n    print(x)\n",
		"def main():\n    print(min(1, 2, 3), max(1.5, 2))\n",
		"def main():\n    print(len(\"abc\"), len([1]))\n",
	}
	for _, src := range srcs {
		checked(t, src)
	}
}

func TestRejections(t *testing.T) {
	cases := []struct{ src, substr string }{
		{"def main():\n    print(x)\n", "undefined variable x"},
		{"def main():\n    x = 1\n    x = \"s\"\n", "cannot assign string to int"},
		{"def main():\n    x = 1.5\n    x = \"s\"\n", "cannot assign string to real"},
		{"def main():\n    r = 1.5\n    i = 1\n    i = r\n", "cannot assign real to int"},
		{"def main():\n    x += 1\n", "undefined variable x"},
		{"def main():\n    x = 1 + \"s\"\n", "numeric operands"},
		{"def main():\n    x = \"a\" - \"b\"\n", "numeric operands"},
		{"def main():\n    b = 1 and true\n", "requires bool"},
		{"def main():\n    b = not 1\n", "requires bool"},
		{"def main():\n    x = -\"s\"\n", "requires int or real"},
		{"def main():\n    if 1:\n        pass\n", "condition must be bool"},
		{"def main():\n    while \"x\":\n        pass\n", "condition must be bool"},
		{"def main():\n    b = true < false\n", "two numbers or two strings"},
		{"def main():\n    b = [1] == \"s\"\n", "cannot compare"},
		{"def main():\n    x = 5\n    y = x[0]\n", "cannot index int"},
		{"def main():\n    a = [1]\n    y = a[\"k\"]\n", "index must be int"},
		{"def main():\n    for i in 5:\n        pass\n", "cannot iterate over int"},
		{"def main():\n    r = [1 .. \"x\"]\n", "range bounds must be int"},
		{"def main():\n    x = []\n", "empty array literal"},
		{"def main():\n    a = [1, \"s\"]\n", "mixed element types"},
		{"def f() int:\n    return 1\n\ndef f() int:\n    return 2\n\ndef main():\n    pass\n", "redeclared"},
		{"def f(x int, x int):\n    pass\n\ndef main():\n    pass\n", "duplicate parameter"},
		{"def main():\n    g()\n", "undefined function g"},
		{"def f(x int):\n    pass\n\ndef main():\n    f()\n", "expects 1 argument"},
		{"def f(x int):\n    pass\n\ndef main():\n    f(\"s\")\n", "cannot use string as int"},
		{"def f() int:\n    return\n\ndef main():\n    pass\n", "missing return value"},
		{"def f():\n    return 1\n\ndef main():\n    pass\n", "does not return a value"},
		{"def f() int:\n    return \"s\"\n\ndef main():\n    pass\n", "cannot return string"},
		{"def f():\n    pass\n\ndef main():\n    x = f()\n", "does not return a value"},
		{"def f():\n    pass\n\ndef main():\n    x = 1 + f()\n", "does not return a value"},
		{"def main():\n    break\n", "break outside of a loop"},
		{"def main():\n    continue\n", "continue outside of a loop"},
		{"def main():\n    while true:\n        parallel:\n            break\n", "break outside of a loop"},
		{"def f() int:\n    parallel:\n        return 1\n    return 2\n\ndef main():\n    pass\n", "not allowed inside a parallel"},
		{"def main(x int):\n    pass\n", "main must not take parameters"},
		{"def main() int:\n    return 1\n", "main must not return a value"},
		{"def main():\n    x = 1\n", ""}, // valid; sanity guard below skips empty substr
		{"def main():\n    print(len(5))\n", "array or string"},
		{"def main():\n    print(sqrt(\"x\"))\n", "must be int or real"},
		{"def main():\n    for i in [1 .. 3]:\n        pass\n    for i in [\"a\"]:\n        pass\n", "loop variable i has type string here but was int"},
		{"def main():\n    x = 1\n    1 + 2\n", "must be a function call"},
	}
	for _, c := range cases {
		if c.substr == "" {
			checked(t, c.src)
			continue
		}
		rejected(t, c.src, c.substr)
	}
}

func TestInferenceAssignsTypes(t *testing.T) {
	prog := checked(t, "def main():\n    x = 1\n    y = 2.5\n    s = \"a\"\n    b = true\n    a = [1, 2]\n    m = [[1.5]]\n")
	main := prog.Funcs[0]
	wantTypes := []struct {
		name string
		t    *types.Type
	}{
		{"x", types.IntType},
		{"y", types.RealType},
		{"s", types.StringType},
		{"b", types.BoolType},
		{"a", types.ArrayOf(types.IntType)},
		{"m", types.ArrayOf(types.ArrayOf(types.RealType))},
	}
	if main.NumSlots != len(wantTypes) {
		t.Errorf("NumSlots = %d, want %d", main.NumSlots, len(wantTypes))
	}
	for i, w := range wantTypes {
		if main.SlotNames[i] != w.name {
			t.Errorf("slot %d name = %q, want %q", i, main.SlotNames[i], w.name)
		}
		as := main.Body.Stmts[i].(*ast.AssignStmt)
		target := as.Target.(*ast.Ident)
		if !types.Equal(target.Type(), w.t) {
			t.Errorf("%s inferred %v, want %v", w.name, target.Type(), w.t)
		}
		if !as.Define {
			t.Errorf("%s first assignment not marked Define", w.name)
		}
		if target.Slot != i {
			t.Errorf("%s slot = %d, want %d", w.name, target.Slot, i)
		}
	}
}

func TestArithmeticResultTypes(t *testing.T) {
	prog := checked(t, "def main():\n    a = 7 / 2\n    b = 7.0 / 2\n    c = 7 % 3\n    d = 1 + 2.5\n    s = \"x\" + \"y\"\n")
	main := prog.Funcs[0]
	want := []*types.Type{types.IntType, types.RealType, types.IntType, types.RealType, types.StringType}
	for i, w := range want {
		as := main.Body.Stmts[i].(*ast.AssignStmt)
		if !types.Equal(as.Target.(*ast.Ident).Type(), w) {
			t.Errorf("stmt %d type = %v, want %v", i, as.Target.(*ast.Ident).Type(), w)
		}
	}
}

func TestEmptyArrayWithContext(t *testing.T) {
	// Empty literal is fine when the context provides the type.
	checked(t, "def main():\n    a = [1, 2]\n    a = []\n    print(a)\n")
	checked(t, "def f(a [int]) int:\n    return len(a)\n\ndef main():\n    print(f([]))\n")
	checked(t, "def f() [string]:\n    return []\n\ndef main():\n    print(f())\n")
}

func TestLockNameCollection(t *testing.T) {
	prog := checked(t, `def a():
    lock m1:
        pass
    lock m2:
        pass

def b():
    lock m1:
        pass

def main():
    a()
    b()
`)
	if len(prog.LockNames) != 2 || prog.LockNames[0] != "m1" || prog.LockNames[1] != "m2" {
		t.Errorf("LockNames = %v", prog.LockNames)
	}
	// Lock m1 in both functions must share an index.
	la := prog.Funcs[0].Body.Stmts[0].(*ast.LockStmt)
	lb := prog.Funcs[1].Body.Stmts[0].(*ast.LockStmt)
	if la.LockIndex != lb.LockIndex {
		t.Errorf("same lock name got different indices: %d vs %d", la.LockIndex, lb.LockIndex)
	}
	l2 := prog.Funcs[0].Body.Stmts[1].(*ast.LockStmt)
	if l2.LockIndex == la.LockIndex {
		t.Error("different lock names share an index")
	}
}

func TestLockNamespaceSeparate(t *testing.T) {
	// A lock name may coincide with a variable name (separate namespaces,
	// paper §II) — Figure III itself locks on "largest".
	checked(t, `def main():
    largest = 0
    lock largest:
        largest = 1
    print(largest)
`)
}

func TestHasParallel(t *testing.T) {
	prog := checked(t, `def seq() int:
    return 1

def par() int:
    parallel:
        x = seq()
        y = seq()
    return x + y

def bg():
    background:
        print(1)

def pfor():
    parallel for i in [1 .. 2]:
        print(i)

def main():
    print(par())
    bg()
    pfor()
`)
	want := map[string]bool{"seq": false, "par": true, "bg": true, "pfor": true, "main": false}
	for _, f := range prog.Funcs {
		if f.HasParallel != want[f.Name] {
			t.Errorf("%s HasParallel = %v, want %v", f.Name, f.HasParallel, want[f.Name])
		}
	}
}

func TestCallBinding(t *testing.T) {
	prog := checked(t, "def f() int:\n    return 1\n\ndef main():\n    print(f())\n")
	call := prog.Funcs[1].Body.Stmts[0].(*ast.ExprStmt).X.(*ast.CallExpr)
	if !call.IsBuiltin {
		t.Error("print not bound as builtin")
	}
	inner := call.Args[0].(*ast.CallExpr)
	if inner.IsBuiltin || inner.FuncIndex != 0 {
		t.Errorf("f() binding wrong: builtin=%v idx=%d", inner.IsBuiltin, inner.FuncIndex)
	}
}

func TestForLoopVarReuse(t *testing.T) {
	prog := checked(t, "def main():\n    for i in [1 .. 3]:\n        pass\n    for i in [4 .. 6]:\n        pass\n")
	f1 := prog.Funcs[0].Body.Stmts[0].(*ast.ForStmt)
	f2 := prog.Funcs[0].Body.Stmts[1].(*ast.ForStmt)
	if f1.Var.Slot != f2.Var.Slot {
		t.Errorf("same-named loop vars got different slots: %d vs %d", f1.Var.Slot, f2.Var.Slot)
	}
}

func TestMultipleErrorsCollected(t *testing.T) {
	prog := mustParse(t, "def main():\n    print(a)\n    print(b)\n    print(c)\n")
	err := Check(prog)
	if err == nil {
		t.Fatal("expected errors")
	}
	list, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(list) != 3 {
		t.Errorf("got %d errors, want 3:\n%v", len(list), err)
	}
}

func TestErrorPositions(t *testing.T) {
	prog := mustParse(t, "def main():\n    x = 1\n    y = x + \"s\"\n")
	err := Check(prog)
	if err == nil {
		t.Fatal("expected error")
	}
	list := err.(ErrorList)
	if list[0].Pos.Line != 3 {
		t.Errorf("error line = %d, want 3", list[0].Pos.Line)
	}
}

// TestKernels pins the kernel the checker records for each operator: ints
// and reals have their own, a mixed pair names its int side, and
// everything else is generic. Augmented assignments record theirs with the
// target on the left.
func TestKernels(t *testing.T) {
	prog := checked(t, `def main():
    i = 1
    r = 2.0
    s = "a"
    b = true
    a = [1]
    print(i + i, r * r, i / r, r % i, i < i, r >= r, i == r, s + s, s < s, b == b, a != a)
    r += i
    r -= r
    i %= i
    s += s
`)
	var got []ast.Kernel
	for _, st := range prog.Funcs[0].Body.Stmts {
		switch st := st.(type) {
		case *ast.ExprStmt:
			for _, arg := range st.X.(*ast.CallExpr).Args {
				got = append(got, arg.(*ast.BinaryExpr).Kernel)
			}
		case *ast.AssignStmt:
			if st.Op != token.ASSIGN {
				got = append(got, st.Kernel)
			}
		}
	}
	want := []ast.Kernel{
		{Op: sem.Add, Operands: ast.Ints}, {Op: sem.Mul, Operands: ast.Reals},
		{Op: sem.Div, Operands: ast.IntReal}, {Op: sem.Mod, Operands: ast.RealInt},
		{Op: sem.Lt, Operands: ast.Ints}, {Op: sem.Ge, Operands: ast.Reals},
		{Op: sem.Eq, Operands: ast.IntReal}, {Op: sem.Add, Operands: ast.Generic},
		{Op: sem.Lt, Operands: ast.Generic}, {Op: sem.Eq, Operands: ast.Generic},
		{Op: sem.Ne, Operands: ast.Generic},
		{Op: sem.Add, Operands: ast.RealInt}, {Op: sem.Sub, Operands: ast.Reals},
		{Op: sem.Mod, Operands: ast.Ints}, {Op: sem.Add, Operands: ast.Generic},
	}
	if !slices.Equal(got, want) {
		t.Errorf("kernels:\n got %v\nwant %v", got, want)
	}
}
