package bytecode

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sem"
	"repro/internal/types"
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

// TestSpawnsReadWhatTheirBodiesRead: a thread body reads its function's
// private variables from a copy of the spawner's registers, so the
// spawning instruction is the read. A store whose only read follows it
// inside a parallel-for body must survive -O1 and -O2, and the liveness
// every phase consults must see it live at the parfor.
func TestSpawnsReadWhatTheirBodiesRead(t *testing.T) {
	const src = `def main():
    k = 3
    u = 5
    parallel for v in [1, 2, 3]:
        print(v * k)
    print(u)
`
	for _, level := range []int{O1, O2} {
		p := compileSrc(t, src)
		if err := VerifyOptimize(p, level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		f := p.Funcs[p.MainIndex]
		ch := &f.Chunks[0]
		const k, u = 0, 1
		store, parfor := -1, -1
		for pc, ins := range ch.Code {
			switch {
			case ins.Op == OpConst && ins.Dst == k:
				store = pc
			case ins.Op == OpParFor:
				parfor = pc
			}
		}
		if store < 0 || parfor < 0 {
			t.Fatalf("-O%d: want k's store and the parfor in chunk 0:\n%s", level, Disassemble(f))
		}
		if !new(optimizer).regLive(f, ch, store+1, k) {
			t.Errorf("-O%d: k's store is dead to the optimizer:\n%s", level, Disassemble(f))
		}
		if !readsReg(f, ch.Code[parfor], k) || readsReg(f, ch.Code[parfor], u) {
			t.Errorf("-O%d: the parfor should read k, which its body reads, and not u", level)
		}
	}
}

// TestUntypedFusionIsGeneric pins what is left of the untyped opcodes
// after the checker's kernel picks every numeric one. Generic operands
// still fuse at -O2 (string + with a constant on either side, a string
// comparison heading a loop, == against a string constant), and no
// untyped instruction of the benchmark's goldens at -O2 has an int or
// real operand, by the types Verify's dataflow gives its registers.
func TestUntypedFusionIsGeneric(t *testing.T) {
	for _, c := range []struct{ src, op string }{
		{"def main():\n    s = read_string()\n    print(s + \"!\")\n", "arithk"},
		{"def main():\n    s = read_string()\n    print(\"<\" + s)\n", "arithkl"},
		{"def main():\n    s = read_string()\n    t = s + s\n    while s < t:\n        s += \"z\"\n    print(s)\n", "cmpjump"},
		{"def main():\n    s = read_string()\n    if s == \"x\":\n        print(s)\n", "cmpkjump"},
	} {
		p := compileSrc(t, c.src)
		if err := VerifyOptimize(p, O2); err != nil {
			t.Fatal(err)
		}
		if dis := Disassemble(p.Funcs[p.MainIndex]); !strings.Contains(dis, " "+c.op+" ") {
			t.Errorf("no %s at -O2:\n%s", c.op, dis)
		}
	}

	files, err := filepath.Glob("../../benchmark/programs/*.ttr")
	if err != nil || len(files) < 20 {
		t.Fatalf("found %d programs: %v", len(files), err)
	}
	untyped := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p := compileSrc(t, string(src))
		if err := VerifyOptimize(p, O2); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		v := &verifier{p: p}
		for _, f := range p.Funcs {
			for ci := range f.Chunks {
				v.f, v.ci, v.ch = f, ci, &f.Chunks[ci]
				for pc, st := range v.chunk() {
					ins := f.Chunks[ci].Code[pc]
					in := ins.Op.info()
					if st == nil || in.kind != nil || !in.isOp && !ins.Op.Fused() {
						continue
					}
					untyped++
					var k *types.Type // the second operand: a register, or a constant
					if in.form == fBinary || in.form == fCmpJump {
						k = st[ins.B]
					} else {
						k = value.TypeOf(f.Consts[ins.B])
					}
					for _, o := range []*types.Type{st[ins.A], k} {
						if o.IsNumeric() {
							t.Errorf("%s: %s chunk %d pc %d: %s has an operand of type %s", filepath.Base(file), f.Name, ci, pc, ins.Op, o)
						}
					}
				}
			}
		}
	}
	if untyped == 0 {
		t.Error("no untyped instruction in any golden: the check above checked nothing")
	}
}
