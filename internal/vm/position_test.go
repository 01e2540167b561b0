package vm

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

// Superinstruction fusion rewrites the instruction an error is raised
// from: a div that raises at -O0 raises from an arithk (or arithkl) at
// -O2. These tests pin that the reported position — file, line, column of
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
			// Constant right operand: div fuses to arithk (fold refuses
			// to evaluate x/0 at compile time; fusion then absorbs the 0).
			name:    "const_divisor",
			src:     "def main():\n    x = 5\n    x = x / 0\n    print(x)\n",
			fusedOp: "arithk",
			msgRE:   `^test\.ttr:3:11: runtime error: division by zero$`,
		},
		{
			// Constant left operand: 10 / d fuses to the mirrored arithkl.
			name:    "const_dividend",
			src:     "def f(d int) int:\n    return 10 / d\n\ndef main():\n    print(f(0))\n",
			fusedOp: "arithkl",
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
			bytecode.Optimize(bc, bytecode.O2)
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
// folding and jump threading must not smear positions across neighbors.
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
