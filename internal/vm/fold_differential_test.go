package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/stdlib"
)

// runInterpSrc executes src on the tree-walking interpreter.
func runInterpSrc(t *testing.T, src string) (string, error) {
	t.Helper()
	prog, _ := compileBoth(t, src)
	var out bytes.Buffer
	err := interp.New(prog, interp.Options{Env: stdlib.NewEnv(strings.NewReader(""), &out)}).Run()
	return out.String(), err
}

// TestFoldEveryOpcodeAgainstInterp folds a constant expression for every
// foldable opcode — the five arithmetic ops, the six comparisons, unary
// neg/not and int→real widening — and checks two properties:
//
//  1. the folder actually folded (no foldable opcode survives at O2), so
//     the test fails if a fold silently stops firing, and
//  2. the folded program's output is byte-identical to the tree-walking
//     interpreter's, so compile-time evaluation equals runtime evaluation.
//
// Since the folder evaluates through internal/sem — the same kernels the
// interpreter calls — property 2 holds by construction; this test is the
// regression net that keeps it that way.
func TestFoldEveryOpcodeAgainstInterp(t *testing.T) {
	cases := []struct {
		name, expr string
		foldedOps  []string // opcodes that must NOT survive at O2
	}{
		{"add_int", "2 + 3", []string{"add"}},
		{"sub_int", "2 - 3", []string{"sub"}},
		{"mul_int", "2 * 3", []string{"mul"}},
		{"div_int", "7 / 2", []string{"div"}},
		{"mod_int", "7 % 2", []string{"mod"}},
		{"add_real", "1.5 + 0.25", []string{"add"}},
		{"sub_real", "1.5 - 0.25", []string{"sub"}},
		{"mul_real", "1.5 * 2.0", []string{"mul"}},
		{"div_real", "1.5 / 0.5", []string{"div"}},
		{"mod_real", "7.5 % 2.0", []string{"mod"}},
		{"add_mixed", "1 + 0.5", []string{"add"}},
		{"add_str", `"foo" + "bar"`, []string{"add"}},
		{"eq", "2 == 3", []string{"eq"}},
		{"ne", "2 != 3", []string{"ne"}},
		{"lt", "2 < 3", []string{"lt"}},
		{"le", "3 <= 3", []string{"le"}},
		{"gt", "2 > 3", []string{"gt"}},
		{"ge", "3 >= 4", []string{"ge"}},
		{"eq_str", `"a" == "a"`, []string{"eq"}},
		{"lt_str", `"ab" < "ac"`, []string{"lt"}},
		{"neg", "-(3 + 4)", []string{"neg", "add"}},
		{"neg_real", "-(1.5)", []string{"neg"}},
		{"not", "not true", []string{"not"}},
		{"toreal_widen", "1.5 + 2", []string{"add", "toreal"}},
		{"nested", "2 * 3 + 4 * 5", []string{"add", "mul"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf("def main():\n    print(%s)\n", c.expr)

			iOut, iErr := runInterpSrc(t, src)
			if iErr != nil {
				t.Fatalf("interp error: %v", iErr)
			}
			for _, level := range []int{bytecode.O0, bytecode.O2} {
				vOut, vErr := runVMOpt(t, src, "", level)
				if vErr != nil {
					t.Fatalf("vm O%d error: %v", level, vErr)
				}
				if vOut != iOut {
					t.Errorf("O%d output %q, interp %q", level, vOut, iOut)
				}
			}

			// The fold must actually fire: disassemble the O2 chunk and
			// assert the folded opcodes are gone.
			// A typed mnemonic is its operator plus a suffix: add.i, add.rk.
			_, bc := compileBoth(t, src)
			optimize(t, bc, bytecode.O2)
			dis := bytecode.Disassemble(bc.Funcs[0])
			for _, op := range c.foldedOps {
				for _, line := range strings.Split(dis, "\n") {
					fields := strings.Fields(line)
					if len(fields) >= 2 && strings.Split(fields[1], ".")[0] == op {
						t.Errorf("opcode %q survived folding at O2:\n%s", fields[1], dis)
					}
				}
			}
		})
	}
}

// TestFoldRefusalsKeepRuntimeError pins the refusal side: expressions
// whose evaluation raises must NOT fold, and the runtime error must carry
// the operator's source position at every optimization level.
func TestFoldRefusalsKeepRuntimeError(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"div_zero", "def main():\n    print(1 / 0)\n", "test.ttr:2:13: runtime error: division by zero"},
		{"mod_zero", "def main():\n    print(1 % 0)\n", "test.ttr:2:13: runtime error: modulo by zero"},
		{"real_div_zero", "def main():\n    print(1.5 / 0.0)\n", "test.ttr:2:15: runtime error: division by zero"},
		{"real_mod_zero", "def main():\n    print(1.5 % 0.0)\n", "test.ttr:2:15: runtime error: modulo by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, iErr := runInterpSrc(t, c.src)
			if iErr == nil || iErr.Error() != c.wantErr {
				t.Fatalf("interp err = %v, want %q", iErr, c.wantErr)
			}
			for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
				_, vErr := runVMOpt(t, c.src, "", level)
				if vErr == nil || vErr.Error() != c.wantErr {
					t.Errorf("O%d err = %v, want %q", level, vErr, c.wantErr)
				}
			}
		})
	}
}
