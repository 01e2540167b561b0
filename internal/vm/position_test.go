package vm

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

// Superinstruction fusion rewrites the instruction an error is raised
// from: a div.i that raises at -O0 raises from an arithk (a constant zero
// divisor stays with the untyped path, which owns that error) or a div.ikl
// at -O2. These tests pin that the reported position — file, line, column of
// the operator — is byte-identical across every optimization level, which
// is the property teachers rely on when a student flips -O levels chasing
// a crash. Each case also asserts the fused opcode actually fired, so the
// test cannot rot into comparing three unoptimized runs.
func TestErrorPositionsSurviveFusion(t *testing.T) {
	cases := []struct {
		name, src string
		fusedOp   string // mnemonic that must appear in main's O2 disassembly
		msgRE     string
	}{
		{
			// Constant right operand: div fuses to arithk (x/0 is evaluated
			// at run time; fusion absorbs the 0).
			name:    "const_divisor",
			src:     "def main():\n    x = 5\n    x = x / 0\n    print(x)\n",
			fusedOp: "arithk",
			msgRE:   `^test\.ttr:3:11: runtime error: division by zero$`,
		},
		{
			// Constant left operand: 10 / d fuses to the mirrored div.ikl.
			name:    "const_dividend",
			src:     "def f(d int) int:\n    return 10 / d\n\ndef main():\n    print(f(0))\n",
			fusedOp: "div.ikl",
			msgRE:   `^test\.ttr:2:15: runtime error: division by zero$`,
		},
		{
			name:    "const_modulus",
			src:     "def main():\n    x = 7\n    x = x % 0\n    print(x)\n",
			fusedOp: "arithk",
			msgRE:   `^test\.ttr:3:11: runtime error: modulo by zero$`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			re := regexp.MustCompile(c.msgRE)
			var msgs []string
			for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
				_, err := runVMOpt(t, c.src, "", level)
				if err == nil {
					t.Fatalf("-O%d: no runtime error", level)
				}
				msgs = append(msgs, err.Error())
			}
			if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
				t.Errorf("error differs across levels:\n-O0 %s\n-O1 %s\n-O2 %s", msgs[0], msgs[1], msgs[2])
			}
			if !re.MatchString(msgs[0]) {
				t.Errorf("error %q does not match %s", msgs[0], c.msgRE)
			}

			// Prove the erroring operation really was fused at O2.
			_, bc := compileBoth(t, c.src)
			optimize(t, bc, bytecode.O2)
			var dis strings.Builder
			for _, f := range bc.Funcs {
				dis.WriteString(bytecode.Disassemble(f))
			}
			if !strings.Contains(dis.String(), c.fusedOp) {
				t.Errorf("no %s in O2 disassembly — fusion did not fire:\n%s", c.fusedOp, dis.String())
			}
		})
	}
}

// A fused compare-jump never raises, but the instructions around it do;
// fusion and jump threading must not smear positions across neighbors.
// The pinned column is the index expression that overruns inside a loop
// headed by a fused (constant) compare.
func TestErrorPositionInFusedLoop(t *testing.T) {
	src := "def main():\n    a = [1, 2, 3]\n    i = 0\n    while i < 5:\n        print(a[i])\n        i += 1\n"
	want := ""
	for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
		_, err := runVMOpt(t, src, "", level)
		if err == nil {
			t.Fatalf("-O%d: no runtime error for out-of-range index", level)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, "test.ttr:5:") {
				t.Fatalf("index error not positioned on the a[i] line: %s", want)
			}
		} else if err.Error() != want {
			t.Errorf("-O%d error %q != -O0 error %q", level, err.Error(), want)
		}
	}
}

// Recursion overflow is raised by the VM's call path, not by an
// instruction's operands, so it needs the call site's position handed to
// it: the message must be positioned, identical at every level, and
// identical to the interpreter's.
func TestRecursionOverflowIsPositionedAtTheCallSite(t *testing.T) {
	src := "def down(n int) int:\n    return down(n + 1) + 1\n\ndef main():\n    print(down(0))\n"
	want := "test.ttr:2:12: runtime error: call stack exhausted (recursion deeper than 10000)"
	_, ierr := runInterp(t, src, "")
	if ierr == nil || ierr.Error() != want {
		t.Errorf("interp error %v, want %s", ierr, want)
	}
	for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
		_, err := runVMOpt(t, src, "", level)
		if err == nil || err.Error() != want {
			t.Errorf("-O%d error %v, want %s", level, err, want)
		}
	}
}

// Every typed opcode that can raise — int and real division and modulo by
// zero, array index and element store out of range — in its register and
// its constant-operand forms, in flat and in shared functions: the error,
// position included, is what the untyped IR reported for the same source
// (the messages below were recorded from the parent of the typed IR), is
// the interpreter's, and is the same at every level. o0 and o2 name the
// opcode that raises at those levels, so the table cannot rot into testing
// something else.
func TestTypedOpcodeErrorPositions(t *testing.T) {
	const (
		div2 = "def f(a %[1]s, b %[1]s) %[1]s:\n    return a %[2]s b\n\ndef main():\n    print(f(%[3]s))\n"
		kl   = "def f(d %[1]s) %[1]s:\n    return %[3]s %[2]s d\n\ndef main():\n    print(f(%[4]s))\n"
	)
	cases := []struct {
		name, src, o0, o2, want string
	}{
		{"int_div_reg", fmt.Sprintf(div2, "int", "/", "7, 0"), "div.i", "div.i", "2:14: runtime error: division by zero"},
		{"int_mod_reg", fmt.Sprintf(div2, "int", "%", "7, 0"), "mod.i", "mod.i", "2:14: runtime error: modulo by zero"},
		{"real_div_reg", fmt.Sprintf(div2, "real", "/", "7.5, 0.0"), "div.r", "div.r", "2:14: runtime error: division by zero"},
		{"real_mod_reg", fmt.Sprintf(div2, "real", "%", "7.5, 0.0"), "mod.r", "mod.r", "2:14: runtime error: modulo by zero"},
		{"int_div_const_dividend", fmt.Sprintf(kl, "int", "/", "10", "0"), "div.i", "div.ikl", "2:15: runtime error: division by zero"},
		{"int_mod_const_dividend", fmt.Sprintf(kl, "int", "%", "10", "0"), "mod.i", "mod.ikl", "2:15: runtime error: modulo by zero"},
		{"real_div_const_dividend", fmt.Sprintf(kl, "real", "/", "1.5", "0.0"), "div.r", "div.rkl", "2:16: runtime error: division by zero"},
		{"real_mod_const_dividend", fmt.Sprintf(kl, "real", "%", "1.5", "0.0"), "mod.r", "mod.rkl", "2:16: runtime error: modulo by zero"},
		{"int_div_const_divisor", "def main():\n    x = 5\n    x = x / 0\n    print(x)\n", "div.i", "arithk", "3:11: runtime error: division by zero"},
		{"int_mod_const_divisor", "def main():\n    x = 7\n    x = x % 0\n    print(x)\n", "mod.i", "arithk", "3:11: runtime error: modulo by zero"},
		{"real_div_const_divisor", "def f(x real) real:\n    return x / 0.0\n\ndef main():\n    print(f(2.5))\n", "div.r", "arithk", "2:14: runtime error: division by zero"},
		{"real_mod_const_divisor", "def f(x real) real:\n    return x % 0.0\n\ndef main():\n    print(f(2.5))\n", "mod.r", "arithk", "2:14: runtime error: modulo by zero"},
		{"int_div_aug", "def f(a int, b int) int:\n    a /= b\n    return a\n\ndef main():\n    print(f(7, 0))\n", "div.i", "div.i", "2:7: runtime error: division by zero"},
		{"real_mod_aug", "def f(a real, b real) real:\n    a %= b\n    return a\n\ndef main():\n    print(f(7.5, 0.0))\n", "mod.r", "mod.r", "2:7: runtime error: modulo by zero"},
		{"mixed_div_stays_untyped", "def f(a real, b int) real:\n    return a / b\n\ndef main():\n    print(f(7.5, 0))\n", "div ", "div ", "2:14: runtime error: division by zero"},
		{"index_reg", "def f(a [int], i int) int:\n    return a[i]\n\ndef main():\n    print(f([1, 2, 3], 3))\n", "index.a", "index.a", "2:12: runtime error: index 3 out of range for array of length 3"},
		{"index_reg_negative", "def f(a [int], i int) int:\n    return a[i]\n\ndef main():\n    print(f([1, 2, 3], -4))\n", "index.a", "index.a", "2:12: runtime error: index -4 out of range for array of length 3"},
		{"index_const", "def f(a [real]) real:\n    return a[5]\n\ndef main():\n    print(f([1.0, 2.0]))\n", "index.a", "index.a", "2:12: runtime error: index 5 out of range for array of length 2"},
		{"setindex_reg", "def f(a [int], i int):\n    a[i] = 9\n\ndef main():\n    f([1, 2, 3], 3)\n", "setidx.a", "setidx.a", "2:5: runtime error: index 3 out of range for array of length 3"},
		{"setindex_const", "def f(a [string]):\n    a[-3] = \"x\"\n\ndef main():\n    f([\"a\", \"b\"])\n", "setidx.a", "setidx.a", "2:5: runtime error: index -3 out of range for array of length 2"},
		{"setindex_aug", "def f(a [int], i int):\n    a[i] += 1\n\ndef main():\n    f([1, 2, 3], 7)\n", "index.a", "index.a", "2:5: runtime error: index 7 out of range for array of length 3"},
		{"shared_div", "def main():\n    d = 0\n    parallel:\n        d = d * 1\n        print(\"\")\n    print(10 / d)\n", "div.i", "div.ikl", "6:14: runtime error: division by zero"},
		{"shared_index", "def main():\n    a = [1, 2]\n    i = 2\n    background:\n        pass\n    a[i] = a[i] + 1\n", "index.a", "index.a", "6:12: runtime error: index 2 out of range for array of length 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := "test.ttr:" + c.want
			if _, err := runInterp(t, c.src, ""); err == nil || err.Error() != want {
				t.Errorf("interp error %v, want %s", err, want)
			}
			for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
				if _, err := runVMOpt(t, c.src, "", level); err == nil || err.Error() != want {
					t.Errorf("-O%d error %v, want %s", level, err, want)
				}
			}
			for level, op := range map[int]string{bytecode.O0: c.o0, bytecode.O2: c.o2} {
				dis := bytecode.DisassembleProgram(compileOpt(t, c.src, level))
				if !strings.Contains(dis, " "+op) {
					t.Errorf("no %q in the -O%d disassembly:\n%s", op, level, dis)
				}
			}
		})
	}
}
