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
	// `while true:` has no test — no const-true load, no conditional jump —
	// so the body's `if i > 3` branch is the only conditional.
	src := "def main():\n    i = 0\n    while true:\n        i += 1\n        if i > 3:\n            break\n    print(i)\n"
	bc := optimizeSrc(t, src, O1)
	f := bc.Funcs[bc.MainIndex]
	ch := f.Chunks[0]
	for pc, ins := range ch.Code {
		if ins.Op == OpConst && f.Consts[ins.A].K == value.Bool {
			t.Errorf("pc %d: bool const load survives in while-true loop", pc)
		}
	}
	if n := condJumps(ch); n != 1 {
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

// TestFusionOnlyAtO2: the compiler's superinstructions, the constant
// forms and the compare-jumps, appear at every level; what -O2 adds (an
// induction step fused into its bottom test, an inlined leaf, a tail call)
// appears only at -O2.
func TestFusionOnlyAtO2(t *testing.T) {
	src := "def inc(x int) int:\n    return x + 1\n\ndef down(n int):\n    if n > 0:\n        down(n - 1)\n\n" +
		"def main():\n    i = 0\n    while i < 10:\n        i = inc(i)\n        i += 1\n    down(3)\n    print(i)\n"
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
	for _, level := range []int{O0, O1, O2} {
		bc := optimizeSrc(t, src, level)
		main := bc.Funcs[bc.MainIndex]
		ch := main.Chunks[0]
		if fused(ch, fCmpJumpK) == 0 || fused(ch, fBinaryK) == 0 {
			t.Errorf("-O%d: no compare-jump or no constant form for the loop's test and i += 1:\n%s", level, Disassemble(main))
		}
		calls, _ := callsOf(bc, "main")
		_, tail := callsOf(bc, "down")
		if o2 := level == O2; (fused(ch, fStepJump) != 0) != o2 || (calls == 1) != o2 || (tail == 1) != o2 {
			t.Errorf("-O%d: %d stepjlt, %d calls in main and %d tail calls in down; want a stepjlt, one call and one tail call exactly at -O2:\n%s",
				level, fused(ch, fStepJump), calls, tail, DisassembleProgram(bc))
		}
		checkTargets(t, bc)
	}
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
// inside a parallel-for body must survive -O1 and -O2.
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
		const k = 0
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
					if st == nil || in.kind != nil || !in.isOp && !untypedFused(ins.Op) {
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

// untypedFused reports whether o is one of the untyped superinstructions,
// which carry their operator in C: the fused opcodes without one (stepjlt,
// setidx.ak) are typed by their form.
func untypedFused(o Op) bool {
	switch o {
	case OpArithConst, OpArithConstL, OpCmpJump, OpCmpConstJump:
		return true
	}
	return false
}

// TestLoopShapes pins how many instructions one iteration of each loop
// shape dispatches at -O0 and -O2: the code from the body's first
// instruction to the last branch back to it, which an iteration that runs
// its body straight through executes once each. A loop tests on entry and
// at its bottom, a condition is compare-jumps and never a bool (so `or`
// has a branch back per operand), a constant is part of its store, and at
// -O2 the induction step joins the bottom test, so a compiler change that
// brings a dispatch back fails here. Only `while true:` has a backward jump, and
// only at -O0: at -O2 the break's test, threaded, is the back-edge, and
// the step joins it. At -O1 and -O2 no jump goes to the next instruction:
// the break's `jump` past the loop, threaded, is deleted.
func TestLoopShapes(t *testing.T) {
	for _, c := range loopShapes {
		src := loopSrc(c.loop)
		for level, want := range map[int]int{O0: c.o0, O1: -1, O2: c.o2} {
			p := compileSrc(t, src)
			if err := VerifyOptimize(p, level); err != nil {
				t.Fatalf("%s -O%d: %v", c.name, level, err)
			}
			f := p.Funcs[p.MainIndex]
			body, got := -1, 0
			for pc, ins := range f.Chunks[0].Code {
				if ins.Op == OpJump && int(ins.A) == pc+1 && level > O0 {
					t.Errorf("%s -O%d: pc %d: a jump to the next instruction:\n%s", c.name, level, pc, Disassemble(f))
				}
				to := ins.target()
				if to == nil || int(*to) > pc {
					continue
				}
				if body >= 0 && int(*to) != body {
					t.Errorf("%s -O%d: pc %d: a second loop", c.name, level, pc)
				}
				body, got = int(*to), pc-int(*to)+1
				if ins.Op == OpJump && (level != O0 || c.name != "while_true_break") {
					t.Errorf("%s -O%d: pc %d: a backward jump", c.name, level, pc)
				}
			}
			if want >= 0 && got != want {
				t.Errorf("%s -O%d: %d instructions per iteration, want %d:\n%s", c.name, level, got, want, Disassemble(f))
			}
		}
	}
}

// loopShapes are TestLoopShapes' loops, with the instructions an
// iteration dispatches at -O0 and -O2.
var loopShapes = []struct {
	name, loop string
	o0, o2     int
}{
	{"lt", "while i < n:\n        s += i\n        i += 1\n", 3, 2},
	{"and", "while i < n and s < 1000:\n        s += i\n        i += 1\n", 4, 4},
	{"or", "while s < 0 or i < n:\n        s += i\n        i += 1\n", 4, 4},
	{"not", "while not i >= n:\n        s += i\n        i += 1\n", 3, 2},
	{"for_in", "for x in a:\n        s += x\n", 2, 2},
	{"const_store", "while i < n:\n        a[i] = 0\n        i += 1\n", 3, 2},
	{"while_true_break", "while true:\n        i += 1\n        if i >= n:\n            break\n", 4, 1},
}

// loopSrc puts loop in a main that declares the variables it uses.
func loopSrc(loop string) string {
	return "def main():\n    n = 10\n    a = range(n)\n    i = 0\n    s = 0\n    " + loop + "    print(i, s, a)\n"
}

// TestEveryPhasePays requires every phase of the optimizer's tables to
// change at least one chunk at -O2 of the programs TestVerifyGoldens reads
// or TestLoopShapes' loops (jump threading fires only on while_true_break),
// so that a phase the compiler's output no longer feeds is seen, and goes.
func TestEveryPhasePays(t *testing.T) {
	srcs := goldenSources(t)
	for _, c := range loopShapes {
		srcs[c.name] = loopSrc(c.loop)
	}
	paid := map[string]bool{}
	for _, src := range srcs {
		p := compileSrc(t, src)
		err := optimize(p, O2, func(ph phase, _ *Func, _ int) error {
			paid[ph.name] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ph := range append(append([]phase{inlinePhase}, o1Phases...), o2Phases...) {
		if !paid[ph.name] {
			t.Errorf("%s changes no chunk of %d programs at -O2", ph.name, len(srcs))
		}
	}
}

// callsOf returns the user calls and the tail calls left in fn's chunks.
func callsOf(p *Program, fn string) (calls, tail int) {
	for _, f := range p.Funcs {
		if f.Name == fn {
			for _, ch := range f.Chunks {
				calls += countOps(ch, OpCall)
				tail += countOps(ch, OpTailCall)
			}
		}
	}
	return calls, tail
}

// TestInlineSmallLeaves pins which calls -O2 replaces with the callee's
// body: a small leaf's, callees first (twice is a leaf once step is
// inlined into it), in a caller no recursive function reaches, the leaf's
// parallel arm included. The rest keep their calls: a leaf called where a
// recursive function reaches (down, and mid below it, whose depth the
// bound must still check), a callee with a loop, with a shared variable,
// with a user call, or longer than inlineMax. -O1 inlines nothing.
func TestInlineSmallLeaves(t *testing.T) {
	src := `def step(x int) int:
    return x + 1

def twice(x int) int:
    return step(step(x))

def sign(x int) string:
    if x < 0:
        return "-"
    if x > 0:
        return "+"

def down(n int) int:
    if n == 0:
        return mid(n)
    return down(n - 1) + 1

def mid(n int) int:
    return step(n) * 2

def loops(n int) int:
    s = 0
    for i in range(n):
        s += i
    return s

def first(a [int]) int:
    for x in a:
        return x

def cells(n int) int:
    parallel:
        n = n + 1
    return n

def long(a int, b int) int:
    return ((a + b) * (a - b) + a * b) % (a + 7) + (b - 3) * (a + b) / 5

def main():
    s = 0
    i = 0
    while i < 10:
        s = twice(s)
        i = i + 1
    parallel:
        print(sign(s), step(1), first([s]))
        print(down(3), loops(4), cells(5), long(6, 8))
`
	for _, level := range []int{O1, O2} {
		p := compileSrc(t, src)
		if err := VerifyOptimize(p, level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		main := Disassemble(p.Funcs[p.MainIndex])
		calls, _ := callsOf(p, "main")
		want := 4 // down, loops, cells and long
		if level == O1 {
			want = 8 // and twice, sign, step and first
		}
		if calls != want {
			t.Errorf("-O%d: main makes %d calls, want %d:\n%s", level, calls, want, main)
		}
		if c, _ := callsOf(p, "twice"); level == O2 && c != 0 {
			t.Errorf("-O2: twice still calls step:\n%s", Disassemble(p.Funcs[1]))
		}
		if c, _ := callsOf(p, "mid"); c != 1 {
			t.Errorf("-O%d: mid, which recursive down reaches, makes %d calls, want 1", level, c)
		}
		if c, _ := callsOf(p, "down"); c != 2 {
			t.Errorf("-O%d: down makes %d calls, want 2", level, c)
		}
	}
}

// TestTailCalls pins which self calls become tailcall at -O2: one whose
// result the function returns at once, and a void one before the end;
// not a call of another function in tail position, not a self call whose
// result is used, and not a void self call in a function with a result,
// whose end returns the result's zero. At -O1 none does.
func TestTailCalls(t *testing.T) {
	src := `def gcd(a int, b int) int:
    if b == 0:
        return a
    return gcd(b, a % b)

def tick(n int):
    if n > 0:
        print(n)
        tick(n - 1)

def other(n int) int:
    if n == 0:
        return 0
    return gcd(n, 6)

def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def fall(n int) int:
    if n == 0:
        return 1
    fall(n - 1)

def main():
    tick(2)
    print(gcd(12, 18), other(4), fib(5), fall(3))
`
	for _, level := range []int{O1, O2} {
		p := compileSrc(t, src)
		if err := VerifyOptimize(p, level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		for _, c := range []struct {
			fn          string
			calls, tail int
		}{{"gcd", 0, 1}, {"tick", 0, 1}, {"other", 1, 0}, {"fib", 2, 0}, {"fall", 1, 0}} {
			calls, tail := callsOf(p, c.fn)
			if level == O1 {
				c.calls, c.tail = c.calls+c.tail, 0
			}
			if calls != c.calls || tail != c.tail {
				t.Errorf("-O%d: %s makes %d calls and %d tail calls, want %d and %d:\n%s", level, c.fn, calls, tail, c.calls, c.tail, DisassembleProgram(p))
			}
		}
	}
}
