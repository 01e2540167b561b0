package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

// TestFoldEveryOpcodeAgainstInterp runs every operator on literal operands
// — the five arithmetic ops, the six comparisons, unary neg/not and
// int→real widening: the expressions a constant folder would evaluate at
// compile time — on the VM at every level and checks two properties:
//
//  1. the operator's instruction is there for the VM to execute (typed,
//     untyped or fused with its constant), so the differential tests the
//     opcode and not a constant, and
//  2. the program's output is byte-identical to the tree-walking
//     interpreter's.
func TestFoldEveryOpcodeAgainstInterp(t *testing.T) {
	cases := []struct {
		name, expr string
		runs       []string // operators the VM must execute at every level
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
		{"neg_real", "-(1.5)", nil}, // a negated literal is one const
		{"not", "not true", []string{"not"}},
		{"toreal_widen", "1.5 + 2", []string{"add"}},
		{"nested", "2 * 3 + 4 * 5", []string{"add", "mul"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf("def main():\n    print(%s)\n", c.expr)

			iOut, iErr := runInterp(t, src, "")
			if iErr != nil {
				t.Fatalf("interp error: %v", iErr)
			}
			for _, level := range []int{bytecode.O0, bytecode.O1, bytecode.O2} {
				vOut, vErr := runVMOpt(t, src, "", level)
				if vErr != nil {
					t.Fatalf("vm O%d error: %v", level, vErr)
				}
				if vOut != iOut {
					t.Errorf("O%d output %q, interp %q", level, vOut, iOut)
				}

				// A mnemonic is its operator, plus a suffix when typed or
				// fused (add.i, add.rk); the untyped arithk names its operator
				// in its comment.
				_, bc := compileBoth(t, src)
				dis := bytecode.Disassemble(optimize(t, bc, level).Funcs[0])
				for _, op := range c.runs {
					found := strings.Contains(dis, " "+op+" ")
					for _, line := range strings.Split(dis, "\n") {
						fields := strings.Fields(line)
						found = found || len(fields) >= 2 && strings.Split(fields[1], ".")[0] == op
					}
					if !found {
						t.Errorf("no %q instruction at O%d for the VM to run:\n%s", op, level, dis)
					}
				}
			}
		})
	}
}

// TestFoldRefusalsKeepRuntimeError pins the raising side: a constant
// expression whose evaluation raises does so at run time, and the error
// carries the operator's source position at every optimization level.
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
			_, iErr := runInterp(t, c.src, "")
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
