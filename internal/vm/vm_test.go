package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/parser"
	"repro/internal/rt"
	"repro/internal/value"
)

func compileBoth(t testing.TB, src string) (*ast.Program, *bytecode.Program) {
	t.Helper()
	prog, err := parser.Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("bytecode: %v\n%s", err, src)
	}
	// Every program any test here compiles is held to the IR's rules.
	if err := bytecode.Verify(bc); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return prog, bc
}

// optimize optimizes bc at level with the verifier run after every phase.
func optimize(t testing.TB, bc *bytecode.Program, level int) *bytecode.Program {
	t.Helper()
	if err := bytecode.VerifyOptimize(bc, level); err != nil {
		t.Fatalf("-O%d: %v\n%s", level, err, bytecode.DisassembleProgram(bc))
	}
	return bc
}

// runVM executes src on the VM, returning output and error.
func runVM(t *testing.T, src, input string) (string, error) {
	t.Helper()
	_, bc := compileBoth(t, src)
	var out bytes.Buffer
	m := New(bc, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := m.Run()
	return out.String(), err
}

func TestRuntimeErrorsVM(t *testing.T) {
	cases := []struct{ name, src, substr string }{
		{"div_zero", "def main():\n    x = 0\n    print(1 / x)\n", "division by zero"},
		{"mod_zero", "def main():\n    x = 0\n    print(1 % x)\n", "modulo by zero"},
		{"index_oob", "def main():\n    a = [1]\n    print(a[3])\n", "out of range"},
		{"store_oob", "def main():\n    a = [1]\n    a[3] = 0\n", "out of range"},
		{"string_oob", "def main():\n    s = \"ab\"\n    print(s[5])\n", "out of range"},
		{"string_immutable", "def main():\n    s = \"ab\"\n    s[0] = \"x\"\n", "immutable"},
		{"stack", "def f(n int) int:\n    return f(n + 1)\n\ndef main():\n    print(f(0))\n", "call stack exhausted"},
		{"builtin_err", "def main():\n    print(substring(\"ab\", 0, 9))\n", "substring"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := runVM(t, c.src, "")
			if err == nil || !strings.Contains(err.Error(), c.substr) {
				t.Errorf("err = %v, want substring %q", err, c.substr)
			}
		})
	}
}

func TestErrorInVMThreadAborts(t *testing.T) {
	src := `def main():
    a = [1]
    parallel for i in [5, 6]:
        a[i] = 0
    print("after")
`
	_, err := runVM(t, src, "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestVMCallAPI(t *testing.T) {
	_, bc := compileBoth(t, "def double(x int) int:\n    return x * 2\n")
	m := New(bc, rt.Config{Stdout: &bytes.Buffer{}})
	v, err := m.Call("double", value.NewInt(21))
	if err != nil || v.Int() != 42 {
		t.Errorf("double = %v, %v", v, err)
	}
	if _, err := m.Call("nope"); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := m.Call("double"); err == nil {
		t.Error("bad arity should fail")
	}
}

func TestVMNoMain(t *testing.T) {
	_, bc := compileBoth(t, "def f():\n    pass\n")
	m := New(bc, rt.Config{Stdout: &bytes.Buffer{}})
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Errorf("err = %v", err)
	}
}

// TestVerifyAfterEveryPhase holds the benchmark sources this package runs
// to the IR's rules as Compile emits them and again after each optimizer
// phase at O2. (Every other test verifies what it compiles too,
// through compileBoth and optimize, and the parity engine table verifies
// every program it runs at every level; this one makes the coverage
// explicit.)
func TestVerifyAfterEveryPhase(t *testing.T) {
	srcs := []string{arithLoopSrc, realLoopSrc, arrayLoopSrc, callLoopSrc, fibSrc, sharedLoopSrc, parForBodySrc}
	for _, src := range srcs {
		compileOpt(t, src, bytecode.O2)
	}
}

func TestDisassembleSmoke(t *testing.T) {
	_, bc := compileBoth(t, "def main():\n    x = 1\n    print(x + 2)\n")
	text := bytecode.Disassemble(bc.Funcs[0])
	for _, want := range []string{"func main", "const", "add", "callb", "r0=x", "builtin#0"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// runVMOpt executes src on the VM with the bytecode optimized at the given
// level.
func runVMOpt(t *testing.T, src, input string, level int) (string, error) {
	t.Helper()
	_, bc := compileBoth(t, src)
	optimize(t, bc, level)
	var out bytes.Buffer
	m := New(bc, rt.Config{Stdin: strings.NewReader(input), Stdout: &out})
	err := m.Run()
	return out.String(), err
}

// TestRealZeroDivisionVM pins the unified arithmetic error semantics: real
// division and modulo by zero raise the same errors as their integer
// counterparts, at every optimization level.
func TestRealZeroDivisionVM(t *testing.T) {
	cases := []struct{ name, src, substr string }{
		{"real_div_var", "def main():\n    x = 0.0\n    print(1.5 / x)\n", "division by zero"},
		{"real_mod_var", "def main():\n    x = 0.0\n    print(1.5 % x)\n", "modulo by zero"},
		{"real_div_const", "def main():\n    print(1.5 / 0.0)\n", "division by zero"},
		{"real_mod_const", "def main():\n    print(1.5 % 0.0)\n", "modulo by zero"},
		{"mixed_div_const", "def main():\n    print(3 / 0.0)\n", "division by zero"},
		{"int_div_const", "def main():\n    print(1 / 0)\n", "division by zero"},
		{"int_mod_const", "def main():\n    print(1 % 0)\n", "modulo by zero"},
	}
	for _, c := range cases {
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			t.Run(fmt.Sprintf("%s_O%d", c.name, level), func(t *testing.T) {
				_, err := runVMOpt(t, c.src, "", level)
				if err == nil || !strings.Contains(err.Error(), c.substr) {
					t.Errorf("err = %v, want substring %q", err, c.substr)
				}
			})
		}
	}
}

// TestOptimizerShrinksCode sanity-checks that optimization actually does
// something on a self-recursive function, whose tail call takes the place
// of a call and the return behind it, and that the compiler's fused
// opcodes are there before it runs.
func TestOptimizerShrinksCode(t *testing.T) {
	src := "def sum(n int, s int) int:\n    if n == 0:\n        return s\n    return sum(n - 1, s + 2 * 3 + n)\n\ndef main():\n    print(sum(1000, 0))\n"
	_, bc0 := compileBoth(t, src)
	_, bc2 := compileBoth(t, src)
	optimize(t, bc2, bytecode.O2)
	n0 := len(bc0.Funcs[0].Chunks[0].Code)
	n2 := len(bc2.Funcs[0].Chunks[0].Code)
	if n2 >= n0 {
		t.Errorf("O2 code length %d, want < O0 length %d", n2, n0)
	}
	fused := false
	for _, ins := range bc0.Funcs[0].Chunks[0].Code {
		if ins.Op.Fused() {
			fused = true
		}
	}
	if !fused {
		t.Error("O0 bytecode contains no fused opcode for a compare with a constant")
	}
	out0, err0 := runVMOpt(t, src, "", bytecode.O0)
	out2, err2 := runVMOpt(t, src, "", bytecode.O2)
	if err0 != nil || err2 != nil || out0 != out2 {
		t.Errorf("outputs disagree: O0=%q (%v) O2=%q (%v)", out0, err0, out2, err2)
	}
}
