package bytecode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/value"
)

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse("test.ttr", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := check.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	bc, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bc
}

func countOps(ch Chunk, op Op) int {
	n := 0
	for _, ins := range ch.Code {
		if ins.Op == op {
			n++
		}
	}
	return n
}

// countOperator counts the instructions that apply operator o, whatever
// their family: untyped, typed, or fused with a constant or a branch.
func countOperator(ch Chunk, o sem.Op) int {
	n := 0
	for _, ins := range ch.Code {
		if in := ins.Op.info(); in.isOp && in.op == o {
			n++
		}
	}
	return n
}

func TestMainIndex(t *testing.T) {
	bc := compileSrc(t, "def helper():\n    pass\n\ndef main():\n    pass\n")
	if bc.MainIndex != 1 {
		t.Errorf("MainIndex = %d, want 1", bc.MainIndex)
	}
	bc2 := compileSrc(t, "def f():\n    pass\n")
	if bc2.MainIndex != -1 {
		t.Errorf("MainIndex = %d, want -1", bc2.MainIndex)
	}
}

func TestConstPooling(t *testing.T) {
	bc := compileSrc(t, "def main():\n    x = 7\n    y = 7\n    z = 7\n    print(x + y + z)\n")
	f := bc.Funcs[0]
	count7 := 0
	for _, c := range f.Consts {
		if c.Int() == 7 {
			count7++
		}
	}
	if count7 != 1 {
		t.Errorf("constant 7 pooled %d times, want 1", count7)
	}
}

func TestJumpTargetsInRange(t *testing.T) {
	bc := compileSrc(t, `def f(x int) int:
    total = 0
    for i in [1 .. x]:
        if i % 2 == 0:
            continue
        if i > 50:
            break
        total += i
    while total > 100:
        total -= 10
    return total

def main():
    print(f(10))
`)
	for _, fn := range bc.Funcs {
		for ci, ch := range fn.Chunks {
			for pc, ins := range ch.Code {
				if a := ins.target(); a != nil && (*a < 0 || int(*a) > len(ch.Code)) {
					t.Errorf("%s chunk %d pc %d: %s target %d out of range [0, %d]",
						fn.Name, ci, pc, ins.Op, *a, len(ch.Code))
				}
			}
			if len(ch.Code) != len(ch.Pos) {
				t.Errorf("%s chunk %d: Code/Pos length mismatch", fn.Name, ci)
			}
		}
	}
}

func TestParallelCompilesToSubChunks(t *testing.T) {
	bc := compileSrc(t, `def main():
    parallel:
        print(1)
        print(2)
        print(3)
`)
	f := bc.Funcs[0]
	if len(f.Chunks) != 4 { // body + 3 children
		t.Fatalf("got %d chunks, want 4", len(f.Chunks))
	}
	var par *Instr
	for i, ins := range f.Chunks[0].Code {
		if ins.Op == OpParallel {
			par = &f.Chunks[0].Code[i]
		}
	}
	if par == nil {
		t.Fatal("no OpParallel in body")
	}
	if par.A != 1 || par.B != 3 {
		t.Errorf("OpParallel operands = (%d, %d), want (1, 3)", par.A, par.B)
	}
	if !f.Shared {
		t.Error("function with parallel not marked shared")
	}
}

func TestParallelForCompilation(t *testing.T) {
	bc := compileSrc(t, `def main():
    parallel for i in [1 .. 3]:
        print(i)
`)
	f := bc.Funcs[0]
	if len(f.Chunks) != 2 {
		t.Fatalf("got %d chunks", len(f.Chunks))
	}
	found := false
	for _, ins := range f.Chunks[0].Code {
		if ins.Op == OpParFor {
			found = true
			if ins.A != 1 {
				t.Errorf("OpParFor chunk = %d, want 1", ins.A)
			}
		}
	}
	if !found {
		t.Error("no OpParFor emitted")
	}
}

func TestLockBalanced(t *testing.T) {
	bc := compileSrc(t, `def main():
    lock m:
        print(1)
    lock m:
        print(2)
`)
	body := bc.Funcs[0].Chunks[0]
	if a, r := countOps(body, OpLockAcquire), countOps(body, OpLockRelease); a != 2 || r != 2 {
		t.Errorf("acquire/release = %d/%d, want 2/2", a, r)
	}
}

func TestReturnInsideLockReleases(t *testing.T) {
	bc := compileSrc(t, `def f() int:
    lock m:
        return 1

def main():
    print(f())
`)
	body := bc.Funcs[0].Chunks[0]
	// One release on the return path plus one on the normal path.
	if r := countOps(body, OpLockRelease); r != 2 {
		t.Errorf("releases = %d, want 2 (early-return + fallthrough)", r)
	}
}

func TestReturnInsideNestedLocksReleasesAll(t *testing.T) {
	bc := compileSrc(t, `def f() int:
    lock a:
        lock b:
            return 1

def main():
    print(f())
`)
	body := bc.Funcs[0].Chunks[0]
	// Return path releases b then a; normal path releases b and a: 4 total.
	if r := countOps(body, OpLockRelease); r != 4 {
		t.Errorf("releases = %d, want 4", r)
	}
}

func TestBreakInsideLockReleases(t *testing.T) {
	bc := compileSrc(t, `def main():
    x = 0
    while x < 10:
        lock m:
            if x == 5:
                break
            x += 1
`)
	body := bc.Funcs[0].Chunks[0]
	// Break path releases m; normal loop path releases m.
	if r := countOps(body, OpLockRelease); r != 2 {
		t.Errorf("releases = %d, want 2", r)
	}
}

func TestBreakOutsideLockDoesNotRelease(t *testing.T) {
	bc := compileSrc(t, `def main():
    lock m:
        x = 0
        while x < 10:
            if x == 5:
                break
            x += 1
`)
	body := bc.Funcs[0].Chunks[0]
	// The lock was acquired before the loop; break must NOT release it.
	if r := countOps(body, OpLockRelease); r != 1 {
		t.Errorf("releases = %d, want 1 (only the block exit)", r)
	}
}

func TestForIterStateInTemps(t *testing.T) {
	bc := compileSrc(t, `def main():
    for i in [1 .. 3]:
        print(i)
`)
	f := bc.Funcs[0]
	// Only i occupies a variable slot; the iteration state (seq, idx)
	// lives in activation-private temporaries, so a for-in inside a
	// parallel-for body can never race across iterations.
	if f.NumSlots != 1 {
		t.Errorf("NumSlots = %d, want 1 (just i)", f.NumSlots)
	}
	if f.Chunks[0].NumTemps < 2 {
		t.Errorf("NumTemps = %d, want >= 2 (seq, idx)", f.Chunks[0].NumTemps)
	}
	var iter *Instr
	for pc, ins := range f.Chunks[0].Code {
		if ins.Op == OpForIter {
			iter = &f.Chunks[0].Code[pc]
		}
	}
	if iter == nil {
		t.Fatal("no OpForIter emitted")
	}
	if int(iter.A) < f.NumSlots {
		t.Errorf("foriter state base r%d is a variable slot; want a temp", iter.A)
	}
}

func TestSharedFlagPropagation(t *testing.T) {
	bc := compileSrc(t, `def seq() int:
    return 1

def par():
    background:
        print(seq())

def main():
    par()
`)
	if bc.Funcs[0].Shared {
		t.Error("seq marked shared")
	}
	if !bc.Funcs[1].Shared {
		t.Error("par not marked shared")
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := OpNop; op < numOps; op++ {
		s := op.String()
		if strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", int(op))
		}
	}
	if Op(200).String() != "op(200)" {
		t.Error("unknown opcode formatting")
	}
}

func TestAllFunctionsEndWithReturn(t *testing.T) {
	bc := compileSrc(t, `def f() int:
    return 1

def g():
    print(1)

def main():
    g()
    print(f())
`)
	for _, fn := range bc.Funcs {
		for ci, ch := range fn.Chunks {
			if len(ch.Code) == 0 {
				t.Errorf("%s chunk %d empty", fn.Name, ci)
				continue
			}
			last := ch.Code[len(ch.Code)-1].Op
			if last != OpReturn && last != OpReturnNone {
				t.Errorf("%s chunk %d ends with %s", fn.Name, ci, last)
			}
		}
	}
}

func TestElifChainCompiles(t *testing.T) {
	bc := compileSrc(t, `def f(x int) int:
    if x == 1:
        return 10
    elif x == 2:
        return 20
    else:
        return 30

def main():
    print(f(2))
`)
	_ = bc
	// Structure validated by the VM differential tests; here we only assert
	// compilation succeeded and produced jumps.
	if countOps(bc.Funcs[0].Chunks[0], OpJumpIfFalse) < 2 {
		t.Error("elif chain lost its conditional jumps")
	}
}

func TestDisassembleFormat(t *testing.T) {
	bc := compileSrc(t, "def main():\n    parallel:\n        print(1)\n")
	text := Disassemble(bc.Funcs[0])
	if !strings.Contains(text, "chunk 0") || !strings.Contains(text, "chunk 1") {
		t.Errorf("disassembly lacks chunks:\n%s", text)
	}
	if !strings.Contains(text, "parallel") {
		t.Errorf("disassembly lacks parallel op:\n%s", text)
	}
}

func TestProgramWithAllConstructs(t *testing.T) {
	// One program exercising every statement kind must compile cleanly.
	src := `def worker(n int) int:
    total = 0
    for i in [1 .. n]:
        if i % 2 == 0:
            continue
        total += i
    return total

def main():
    results = range(4)
    parallel for w in range(4):
        results[w] = worker(w + 10)
    parallel:
        a = worker(5)
        b = worker(6)
    background:
        print("bg")
    lock m:
        c = a + b
    x = 0
    while x < 3:
        x += 1
        if x == 2:
            break
    print(results[0] + c + x)
`
	bc := compileSrc(t, src)
	main := bc.Funcs[1]
	if len(main.Chunks) < 4 {
		t.Errorf("main has %d chunks, want >= 4 (parfor + 2 parallel + background)", len(main.Chunks))
	}
	checkStmt := 0
	for _, ch := range main.Chunks {
		checkStmt += len(ch.Code)
	}
	if checkStmt == 0 {
		t.Error("no code emitted")
	}
}

// TestLiteralShapes pins what the compiler emits for the literal shapes no
// optimizer phase evaluates — a negated literal, an int literal in a real
// context, `while true:`, `a[i] += e`, `x += e` on a real — at every level:
// the shape is the compiler's, so -O0 has it too.
func TestLiteralShapes(t *testing.T) {
	// loads reports whether some OpConst of f loads exactly v.
	loads := func(f *Func, v value.Value) bool {
		for _, ch := range f.Chunks {
			for _, ins := range ch.Code {
				if ins.Op == OpConst && value.Identical(f.Consts[ins.A], v) {
					return true
				}
			}
		}
		return false
	}
	// oneConst: f loads v, and applies no neg and no toreal to get it.
	oneConst := func(v value.Value) func(*testing.T, *Func, int) {
		return func(t *testing.T, f *Func, _ int) {
			if !loads(f, v) {
				t.Errorf("no const %s of kind %d", v, v.K)
			}
			if n := countOps(f.Chunks[0], OpNeg) + countOps(f.Chunks[0], OpToReal); n != 0 {
				t.Errorf("%d neg/toreal instruction(s)", n)
			}
		}
	}
	// raisesAt: the operator is still there to raise, positioned at col. A
	// division by a constant zero fuses into the untyped arithk, which
	// carries its operator in C.
	raisesAt := func(op sem.Op, col int) func(*testing.T, *Func, int) {
		return func(t *testing.T, f *Func, _ int) {
			ch := f.Chunks[0]
			for pc, ins := range ch.Code {
				if ins.Op == OpArithConst {
					ins.Op = Op(ins.C)
				}
				if in := ins.Op.info(); in.isOp && in.op == op {
					if ch.Pos[pc].Line != 2 || ch.Pos[pc].Col != col {
						t.Errorf("%s positioned at %s, want 2:%d", ins.Op, ch.Pos[pc], col)
					}
					return
				}
			}
			t.Errorf("no %s instruction left to raise", op)
		}
	}
	cases := []struct {
		name, src, fn string
		check         func(t *testing.T, f *Func, level int)
	}{
		{"neg_int", "def main():\n    print(-5)\n", "main", oneConst(value.NewInt(-5))},
		{"neg_real", "def main():\n    print(-2.5)\n", "main", oneConst(value.NewReal(-2.5))},
		{"assign_real", "def main():\n    x = 1.5\n    x = 3\n    print(x)\n", "main", oneConst(value.NewReal(3))},
		{"assign_neg_real", "def main():\n    x = 1.5\n    x = -3\n    print(x)\n", "main", oneConst(value.NewReal(-3))},
		{"assign_shared", "def main():\n    x = 1.5\n    parallel:\n        x = 3\n    print(x)\n", "main", func(t *testing.T, f *Func, _ int) {
			if !loads(f, value.NewReal(3)) || countOps(f.Chunks[1], OpToReal) != 0 {
				t.Error("the parallel child does not store a const 3.0")
			}
		}},
		{"argument", "def f(r real) real:\n    return r\n\ndef main():\n    print(f(3))\n", "main", oneConst(value.NewReal(3))},
		{"builtin_argument", "def main():\n    print(sqrt(4))\n", "main", oneConst(value.NewReal(4))},
		{"builtin_argument_register", "def main():\n    n = 4\n    print(pow(n, 0.5), min(n, 1))\n", "main", func(t *testing.T, f *Func, _ int) {
			// One toreal for pow's real parameter; min, a generic builtin,
			// takes its int as it is.
			if n := countOps(f.Chunks[0], OpToReal); n != 1 {
				t.Errorf("%d toreal(s), want 1", n)
			}
		}},
		{"element", "def main():\n    print([1, 2.5])\n", "main", oneConst(value.NewReal(1))},
		{"index_assign", "def main():\n    a = [2.5]\n    a[0] = 3\n    print(a)\n", "main", oneConst(value.NewReal(3))},
		{"return", "def f() real:\n    return 3\n\ndef main():\n    print(f())\n", "f", oneConst(value.NewReal(3))},
		{"while_true", "def main():\n    while true:\n        break\n", "main", func(t *testing.T, f *Func, _ int) {
			ch := f.Chunks[0]
			if n := countOps(ch, OpJumpIfFalse) + countOps(ch, OpJumpIfTrue) + countOps(ch, OpConst); n != 0 {
				t.Errorf("%d test instruction(s) in a while-true loop", n)
			}
		}},
		{"aug_index", "def main():\n    hist = [0, 0, 0]\n    for b in [0 .. 2]:\n        hist[b] += 1\n", "main", func(t *testing.T, f *Func, _ int) {
			if n := countOps(f.Chunks[0], OpMove); n != 0 {
				t.Errorf("%d move(s): hist[b] += 1 copies the registers it already has", n)
			}
		}},
		{"aug_real", "def main():\n    x = 2.0\n    x += 1.5\n    a = [x]\n    a[0] += 1.5\n    print(a)\n", "main", func(t *testing.T, f *Func, level int) {
			ch := f.Chunks[0]
			if n := countOps(ch, OpToReal); n != 0 {
				t.Errorf("%d toreal(s) behind an operation whose left operand is real", n)
			}
			if level == O2 && !strings.Contains(Disassemble(f), "add.rk     r0=x, r0=x, 1.5") {
				t.Error("x += 1.5 is not one add.rk")
			}
		}},
		{"div_zero", "def main():\n    print(1 / 0)\n", "main", raisesAt(sem.Div, 13)},
		{"real_mod_zero", "def main():\n    print(1.0 % 0.0)\n", "main", raisesAt(sem.Mod, 15)},
	}
	for _, c := range cases {
		for _, level := range []int{O0, O1, O2} {
			t.Run(fmt.Sprintf("%s/O%d", c.name, level), func(t *testing.T) {
				p := compileSrc(t, c.src)
				if err := VerifyOptimize(p, level); err != nil {
					t.Fatal(err)
				}
				for _, f := range p.Funcs {
					if f.Name == c.fn {
						c.check(t, f, level)
						if t.Failed() {
							t.Logf("\n%s", Disassemble(f))
						}
					}
				}
			})
		}
	}
}
