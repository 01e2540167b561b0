package bytecode

import (
	"testing"

	"repro/internal/sem"
	"repro/internal/value"
)

func optimizeSrc(t *testing.T, src string, level int) *Program {
	t.Helper()
	return Optimize(compileSrc(t, src), level)
}

// checkTargets asserts every jump target is inside the chunk (or exactly
// its end) — the invariant compact() must maintain.
func checkTargets(t *testing.T, bc *Program) {
	t.Helper()
	for fi, f := range bc.Funcs {
		for ci, ch := range f.Chunks {
			n := int32(len(ch.Code))
			for pc, ins := range ch.Code {
				if a := ins.target(); a != nil && (*a < 0 || *a > n) {
					t.Errorf("func %d chunk %d pc %d: %s target %d out of [0,%d]", fi, ci, pc, ins.Op, *a, n)
				}
			}
			if len(ch.Pos) != len(ch.Code) {
				t.Errorf("func %d chunk %d: pos table length %d != code length %d", fi, ci, len(ch.Pos), len(ch.Code))
			}
		}
	}
}

func TestWhileTrueBecomesPlainLoop(t *testing.T) {
	// `while true:` has no test — no const-true load, no jfalse — so the
	// body's `if i > 3` branch is the only conditional.
	src := "def main():\n    i = 0\n    while true:\n        i += 1\n        if i > 3:\n            break\n    print(i)\n"
	bc := optimizeSrc(t, src, O1)
	f := bc.Funcs[bc.MainIndex]
	ch := f.Chunks[0]
	for pc, ins := range ch.Code {
		if ins.Op == OpConst && f.Consts[ins.A].K == value.Bool {
			t.Errorf("pc %d: bool const load survives in while-true loop", pc)
		}
	}
	if n := countOps(ch, OpJumpIfFalse) + countOps(ch, OpJumpIfTrue); n != 1 {
		t.Errorf("%d conditional jump(s) survive; want 1 (the if, not the while header):\n%s",
			n, Disassemble(f))
	}
	checkTargets(t, bc)
}

func TestDeadCodeAfterReturn(t *testing.T) {
	// Both branches return, so the chunk-end fallthrough return path and
	// any post-if code are unreachable.
	src := "def f(x int) int:\n    if x > 0:\n        return 1\n    else:\n        return 2\n    print(\"unreachable\")\n\ndef main():\n    print(f(1))\n"
	bc0 := compileSrc(t, src)
	bc := optimizeSrc(t, src, O1)
	n0 := len(bc0.Funcs[0].Chunks[0].Code)
	n1 := len(bc.Funcs[0].Chunks[0].Code)
	if n1 >= n0 {
		t.Errorf("dead code not removed: %d -> %d instructions", n0, n1)
	}
	checkTargets(t, bc)
}

func TestFoldRefusesDivisionByZero(t *testing.T) {
	// Constant division/modulo by zero reaches run time, where the program
	// raises the positioned error, on ints and reals alike: no phase
	// evaluates an operator.
	cases := []struct {
		name, src string
		op        sem.Op
	}{
		{"int_div", "def main():\n    print(1 / 0)\n", sem.Div},
		{"int_mod", "def main():\n    print(1 % 0)\n", sem.Mod},
		{"real_div", "def main():\n    print(1.5 / 0.0)\n", sem.Div},
		{"real_mod", "def main():\n    print(1.5 % 0.0)\n", sem.Mod},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bc := optimizeSrc(t, c.src, O1)
			ch := bc.Funcs[bc.MainIndex].Chunks[0]
			if countOperator(ch, c.op) == 0 {
				t.Errorf("%s folded away; must raise at run time:\n%s", c.op, Disassemble(bc.Funcs[bc.MainIndex]))
			}
		})
	}
}

func TestFusionOnlyAtO2(t *testing.T) {
	src := "def main():\n    i = 0\n    while i < 10:\n        i += 1\n    print(i)\n"
	bc1 := optimizeSrc(t, src, O1)
	ch1 := bc1.Funcs[bc1.MainIndex].Chunks[0]
	// fused counts the superinstructions with one of the given layouts,
	// typed or untyped.
	fused := func(ch Chunk, forms ...form) int {
		n := 0
		for _, ins := range ch.Code {
			for _, f := range forms {
				if ins.Op.Fused() && ins.Op.info().form == f {
					n++
				}
			}
		}
		return n
	}
	if fused(ch1, fBinaryK, fBinaryKL, fCmpJump, fCmpJumpK) != 0 {
		t.Error("fused opcodes emitted at O1")
	}
	bc2 := optimizeSrc(t, src, O2)
	ch2 := bc2.Funcs[bc2.MainIndex].Chunks[0]
	if fused(ch2, fCmpJump, fCmpJumpK) == 0 {
		t.Errorf("no fused compare-jump at O2 for a compare-headed while loop:\n%s", Disassemble(bc2.Funcs[bc2.MainIndex]))
	}
	if fused(ch2, fBinaryK) == 0 {
		t.Errorf("no arithconst at O2 for i += 1:\n%s", Disassemble(bc2.Funcs[bc2.MainIndex]))
	}
	if len(ch2.Code) >= len(ch1.Code) {
		t.Errorf("fusion did not shrink code: O1=%d O2=%d", len(ch1.Code), len(ch2.Code))
	}
	checkTargets(t, bc1)
	checkTargets(t, bc2)
}

func TestO0IsIdentity(t *testing.T) {
	src := "def main():\n    print(2 + 3)\n"
	bc0 := compileSrc(t, src)
	before := len(bc0.Funcs[bc0.MainIndex].Chunks[0].Code)
	Optimize(bc0, O0)
	if after := len(bc0.Funcs[bc0.MainIndex].Chunks[0].Code); after != before {
		t.Errorf("O0 changed the code: %d -> %d instructions", before, after)
	}
}

func TestOptimizeParallelChunks(t *testing.T) {
	// Sub-chunks (parallel bodies) are optimized too, and OpParallel's
	// chunk references are untouched by compaction (they index chunks, not
	// pcs).
	src := "def main():\n    a = 0\n    b = 0\n    parallel:\n        a = a + 3\n        b = b * 5\n    print(a + b)\n"
	bc := optimizeSrc(t, src, O2)
	f := bc.Funcs[bc.MainIndex]
	if len(f.Chunks) < 3 {
		t.Fatalf("expected parallel sub-chunks, got %d chunk(s)", len(f.Chunks))
	}
	for ci := 1; ci < len(f.Chunks); ci++ {
		if n := countOps(f.Chunks[ci], OpAddIntK) + countOps(f.Chunks[ci], OpMulIntK); n != 1 {
			t.Errorf("chunk %d: %d constant-operand arith op(s), want 1:\n%s", ci, n, Disassemble(f))
		}
	}
	checkTargets(t, bc)
}
