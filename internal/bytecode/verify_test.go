package bytecode

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/value"
)

// TestVerifyGoldens holds the benchmark's programs and this package's own
// to the IR's rules as Compile emits them and after each optimizer phase,
// at O1 and O2. (The parity engine table does the same for every program
// it runs, the golden corpus included.)
func TestVerifyGoldens(t *testing.T) {
	for file, src := range goldenSources(t) {
		for _, level := range []int{O1, O2} {
			p := compileSrc(t, src)
			if err := VerifyOptimize(p, level); err != nil {
				t.Errorf("%s at -O%d: %v", file, level, err)
			}
		}
	}
}

// goldenSources returns the benchmark's programs and this package's own,
// by file name.
func goldenSources(t *testing.T) map[string]string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"../../benchmark/programs/*.ttr", "testdata/*.ttr"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 20 {
		t.Fatalf("found only %d programs: %v", len(files), files)
	}
	srcs := map[string]string{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[file] = string(src)
	}
	return srcs
}

// verifySrc is a flat function with a loop, typed arithmetic, a call, an
// array and a builtin, a shared one with cells, a parallel block, a
// parallel for and a lock, and a void one that hands an int to a builtin's
// real parameter: something for every rule to be broken in. The operands
// that a literal would make a constant form (the or, i < n, total + n,
// x * x) are registers.
const verifySrc = `def flat(a [int], n int) int:
    s = 0
    i = 0
    while i < n:
        s = s + a[i] * 2
        i += 1
    done = i < n or s < i
    if done:
        s = 0
    return s

def shared(n int) int:
    total = 0
    parallel for k in [1 .. n]:
        lock t:
            total += k
    parallel:
        total = total + n
        print(total)
    return total

def main():
    x = 1.5
    print(flat([1, 2, 3], 3) + shared(4), x * 2.0, x * x)
    note(7)

def note(x int):
    r = sqrt(x)
`

// TestVerifyRejects corrupts a verified program by hand, one rule at a
// time, and requires the verifier to name each violation in its own words.
func TestVerifyRejects(t *testing.T) {
	// find returns the first instruction of fn's chunk ci with opcode op.
	find := func(t *testing.T, p *Program, fn string, ci int, op Op) *Instr {
		t.Helper()
		for _, f := range p.Funcs {
			if f.Name != fn {
				continue
			}
			for pc := range f.Chunks[ci].Code {
				if f.Chunks[ci].Code[pc].Op == op {
					return &f.Chunks[ci].Code[pc]
				}
			}
		}
		t.Fatalf("no %s in %s chunk %d:\n%s", op, fn, ci, DisassembleProgram(p))
		return nil
	}
	fn := func(p *Program, name string) *Func {
		for _, f := range p.Funcs {
			if f.Name == name {
				return f
			}
		}
		return nil
	}
	cases := []struct {
		name    string
		level   int
		corrupt func(t *testing.T, p *Program)
		want    string
	}{
		{"typed op on a real register", O0, func(t *testing.T, p *Program) {
			// main's x * x is a mul.r; call it a mul.i.
			find(t, p, "main", 0, OpMulReal).Op = OpMulInt
		}, "holds real, want int"},
		{"typed constant of the wrong kind", O2, func(t *testing.T, p *Program) {
			f := fn(p, "flat")
			find(t, p, "flat", 0, OpMulIntK).B = f.internConst(value.NewReal(2))
		}, "constant 2.0 is real, want int"},
		{"typed constant divisor of zero", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "flat", 0, OpMulIntK)
			ins.Op, ins.B = OpDivIntK, fn(p, "flat").internConst(value.NewInt(0))
		}, "constant divisor is zero"},
		{"jump out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpJumpIfFalse).A = 99
		}, "jump target 99 out of range"},
		{"compare-jump out of range", O2, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpJgeInt).Dst = -1
		}, "jump target -1 out of range"},
		{"fornext whose target leaves the chunk", O0, func(t *testing.T, p *Program) {
			// flat's jtrue of the or, made the bottom of a for-in loop over a.
			*find(t, p, "flat", 0, OpJumpIfTrue) = Instr{Op: OpForNext, Dst: 2, A: 0, B: 77}
		}, "fornext: jump target 77 out of range"},
		// flat's `i += 1` and bottom test are one stepjlt.ki at -O2.
		{"stepjlt limit in a non-int register", O2, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpStepJltKI).C = 0
		}, "operand r0=a holds [int], want int"},
		{"stepjlt step of the wrong kind", O2, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpStepJltKI).B = fn(p, "flat").internConst(value.NewReal(1))
		}, "constant 1.0 is real, want int"},
		{"stepjlt on a shared variable's register", O0, func(t *testing.T, p *Program) {
			// shared's `total = 0` store, turned into a step of total itself.
			f := fn(p, "shared")
			*find(t, p, "shared", 0, OpStoreCell) = Instr{Op: OpStepJltKK, A: 1, B: f.internConst(value.NewInt(1)), C: f.internConst(value.NewInt(1))}
		}, "stepjlt.kk: names the register of r1=total, a shared variable"},
		{"setidx.ak of a constant that is not the element type", O2, func(t *testing.T, p *Program) {
			// flat's a[i] read, turned into a store of a string into a [int].
			ins := find(t, p, "flat", 0, OpIndexArr)
			*ins = Instr{Op: OpSetIndexArrK, A: ins.A, B: ins.B, C: fn(p, "flat").internConst(value.NewString("x"))}
		}, `constant "x" is string, want int`},
		{"slot operand in a shared function", O0, func(t *testing.T, p *Program) {
			find(t, p, "shared", 2, OpAddInt).A = 1
		}, "names the register of r1=total, a shared variable"},
		{"cell access in a flat function", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpConst).Op = OpLoadCell
		}, "cell operand c0=a is a private variable"},
		{"cell out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "shared", 0, OpLoadCell).A = 7
		}, "cell c7 out of range"},
		{"store of the wrong type into a cell", O0, func(t *testing.T, p *Program) {
			// shared's `total = 0`: the constant its stcell stores.
			f := fn(p, "shared")
			st := find(t, p, "shared", 0, OpStoreCell)
			for pc := range f.Chunks[0].Code {
				if ins := &f.Chunks[0].Code[pc]; ins.Op == OpConst && ins.Dst == st.A {
					ins.A = f.internConst(value.NewString("0"))
				}
			}
		}, "stores string into c1=total, a int"},
		{"write of the wrong type into a variable", O0, func(t *testing.T, p *Program) {
			f := fn(p, "flat")
			find(t, p, "flat", 0, OpConst).A = f.internConst(value.NewReal(0))
		}, "writes real into r2=s, a int"},
		// The VM enters Funcs[A] and evaluates builtin A unguarded, copies C
		// arguments, and stores a result wherever Dst names a register.
		{"function out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpCall).A = int32(len(p.Funcs))
		}, "function #4 out of range [0, 4)"},
		{"builtin out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpCallBuiltin).A = stdlib.NumBuiltins
		}, fmt.Sprintf("builtin #%d out of range", stdlib.NumBuiltins)},
		{"argument count that is not the callee's", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpCall).C = 1
		}, "1 arguments for the 2 parameters of flat"},
		// tailcall reruns the function itself, in place, from chunk 0.
		{"tail call of another function", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpCall).Op = OpTailCall
		}, "tail-calls flat, not the function itself"},
		{"tail call from a parallel sub-chunk", O0, func(t *testing.T, p *Program) {
			// shared's `print(total)` arm, made shared(total).
			ins := find(t, p, "shared", 3, OpCallBuiltin)
			ins.Op, ins.A = OpTailCall, 1
		}, "tail-calls from a parallel sub-chunk"},
		{"tail call that names a destination", O0, func(t *testing.T, p *Program) {
			ins := find(t, p, "main", 0, OpCall)
			*ins = Instr{Op: OpTailCall, Dst: ins.Dst, A: int32(p.MainIndex), B: ins.B}
		}, "names a destination; a tail call returns its result"},
		{"tail call with arguments for no parameters", O0, func(t *testing.T, p *Program) {
			ins := find(t, p, "main", 0, OpCall)
			*ins = Instr{Op: OpTailCall, Dst: -1, A: int32(p.MainIndex), B: ins.B, C: 1}
		}, "1 arguments for the 0 parameters of main"},
		{"result kept of a void function", O0, func(t *testing.T, p *Program) {
			ch := &fn(p, "main").Chunks[0]
			for pc := range ch.Code {
				if ins := &ch.Code[pc]; ins.Op == OpCall && p.Funcs[ins.A].Name == "note" {
					ins.Dst = ins.B
				}
			}
		}, "call: keeps the result of a call that has none"},
		{"result kept of print", O0, func(t *testing.T, p *Program) {
			ins := find(t, p, "shared", 3, OpCallBuiltin)
			ins.Dst = ins.B
		}, "callb: keeps the result of a call that has none"},
		{"temporary read before any write", O0, func(t *testing.T, p *Program) {
			// flat's `s + a[i] * 2`: make the add read a temporary nothing wrote.
			f := fn(p, "flat")
			f.Chunks[0].NumTemps++
			find(t, p, "flat", 0, OpAddInt).B = int32(f.NumSlots + f.Chunks[0].NumTemps - 1)
		}, "which is not written on every path to here"},
		{"temporary written on one path only", O0, func(t *testing.T, p *Program) {
			// Swap the or's first comparison and the jtrue that tests it: the
			// jtrue then reads the temporary undefined.
			ch := &fn(p, "flat").Chunks[0]
			for pc, ins := range ch.Code {
				if ins.Op == OpLtInt {
					ch.Code[pc], ch.Code[pc+1] = ch.Code[pc+1], ch.Code[pc]
					break
				}
			}
		}, "which is not written on every path to here"},
		{"block operand reaching into the variable slots", O0, func(t *testing.T, p *Program) {
			find(t, p, "shared", 3, OpCallBuiltin).B = 2
		}, "block operand r2..#1 reaches outside the temporaries [r3, r4)"},
		{"argument of the wrong type", O0, func(t *testing.T, p *Program) {
			// flat(a [int], n int): hand it the array twice.
			ch := &fn(p, "main").Chunks[0]
			call := find(t, p, "main", 0, OpCall)
			for pc := range ch.Code {
				if ch.Code[pc].Op == OpConst && ch.Code[pc].Dst == call.B+1 {
					ch.Code[pc] = Instr{Op: OpMove, Dst: call.B + 1, A: call.B}
				}
			}
		}, "argument 2 of flat holds [int], want int"},
		{"int register in a builtin's real parameter", O0, func(t *testing.T, p *Program) {
			// note's sqrt(x): drop the widening the compiler put before it.
			find(t, p, "note", 0, OpToReal).Op = OpNop
		}, "argument 1 of sqrt holds int, want real"},
		{"constant out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpConst).A = 40
		}, "constant #40 out of range"},
		{"register out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpReturn).A = 40
		}, "register r40 out of range"},
		{"element type out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpArray).C = 3
		}, "type #3 out of range"},
		{"lock out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "shared", 1, OpLockAcquire).A = 2
		}, "lock #2 out of range"},
		{"chunk out of range", O0, func(t *testing.T, p *Program) {
			find(t, p, "shared", 0, OpParallel).B = 9
		}, "chunks [2, 11) out of range"},
		{"index of something that is not an array", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpIndexArr).A = 1
		}, "holds int, want an array"},
		{"return of the wrong type", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpReturn).A = 0
		}, "returns [int] from a function returning int"},
		{"value returned from a sub-chunk", O0, func(t *testing.T, p *Program) {
			ch := &fn(p, "shared").Chunks[1]
			ch.Code[len(ch.Code)-1] = Instr{Op: OpReturn, A: ch.Code[1].Dst}
		}, "returns a value from a parallel sub-chunk"},
		{"chunk without a terminator", O0, func(t *testing.T, p *Program) {
			ch := &fn(p, "shared").Chunks[1]
			ch.Code[len(ch.Code)-1].Op = OpNop
		}, "control can run off the end"},
		{"Pos not parallel to Code", O0, func(t *testing.T, p *Program) {
			ch := &fn(p, "flat").Chunks[0]
			ch.Pos = ch.Pos[1:]
		}, "Pos has 15 entries for 16 instructions"},
		{"raising instruction without a position", O0, func(t *testing.T, p *Program) {
			ch := &fn(p, "flat").Chunks[0]
			for pc, ins := range ch.Code {
				if ins.Op == OpIndexArr {
					ch.Pos[pc] = token.Pos{}
				}
			}
		}, "can raise but has no source position"},
		{"untyped operator of the wrong family", O2, func(t *testing.T, p *Program) {
			// An arithk whose C names a comparison.
			ins := find(t, p, "flat", 0, OpMulIntK)
			ins.Op, ins.C = OpArithConst, int32(OpLt)
		}, "operand C does not hold an untyped operator"},
		// Untyped opcodes run generic kernels only; numbers have typed ones.
		{"untyped add on real registers", O0, func(t *testing.T, p *Program) {
			find(t, p, "main", 0, OpMulReal).Op = OpAdd
		}, "untyped add of real and real"},
		{"untyped lt on int registers", O0, func(t *testing.T, p *Program) {
			find(t, p, "flat", 0, OpLtInt).Op = OpLt
		}, "untyped lt of int and int"},
		{"untyped cmpjump on int registers", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "flat", 0, OpJgeInt)
			ins.Op, ins.C = OpCmpJump, PackCmp(OpGe, true)
		}, "untyped ge of int and int"},
		{"untyped arithk on an int register", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "flat", 0, OpMulIntK)
			ins.Op, ins.C = OpArithConst, int32(OpAdd)
		}, "untyped add of int and int"},
		{"arithk whose operator is typed", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "flat", 0, OpMulIntK)
			ins.Op, ins.C = OpArithConst, int32(OpMulInt)
		}, "operand C does not hold an untyped operator: mul.i"},
		{"arithkl whose operator is a comparison", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "flat", 0, OpMulIntK)
			ins.Op, ins.C = OpArithConstL, int32(OpEq)
		}, "operand C does not hold an untyped operator: eq"},
		{"real constant divisor of zero", O2, func(t *testing.T, p *Program) {
			ins := find(t, p, "main", 0, OpMulRealK)
			ins.Op, ins.B = OpModRealK, fn(p, "main").internConst(value.NewReal(0))
		}, "mod.rk: constant divisor is zero"},
		{"SlotTypes not parallel to the slots", O0, func(t *testing.T, p *Program) {
			f := fn(p, "flat")
			f.SlotTypes = append(f.SlotTypes, types.IntType)
		}, "SlotTypes has 6 entries for 5 slots"},
	}
	seen := make(map[string]string)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := compileSrc(t, verifySrc)
			if err := VerifyOptimize(p, c.level); err != nil {
				t.Fatalf("before the corruption: %v", err)
			}
			c.corrupt(t, p)
			err := Verify(p)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Verify = %v, want an error containing %q\n%s", err, c.want, DisassembleProgram(p))
			}
			if prev, dup := seen[c.want]; dup && !strings.HasPrefix(c.name, "temporary") {
				t.Errorf("%q and %q are told apart by nothing: both %q", prev, c.name, c.want)
			}
			seen[c.want] = c.name
		})
	}
}

// TestVerifyAcceptsPrivateSlotsBesideCells: in a function with cells, only
// the shared variables' registers are off limits. shared's n and k are
// private: chunk 0 reads n's register for the range, and the parallel-for
// body reads k's, which each iteration writes.
func TestVerifyAcceptsPrivateSlotsBesideCells(t *testing.T) {
	for _, level := range []int{O0, O1, O2} {
		p := compileSrc(t, verifySrc)
		if err := VerifyOptimize(p, level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		var f *Func
		for _, g := range p.Funcs {
			if g.Name == "shared" {
				f = g
			}
		}
		if !f.SharedSlot(1) || f.SharedSlot(0) || f.SharedSlot(2) {
			t.Fatalf("-O%d: Shared = %v, want only total (slot 1)", level, f.Shared)
		}
		// names: some register-register instruction of chunk ci reads reg.
		names := func(ci int, reg int32) bool {
			for _, ins := range f.Chunks[ci].Code {
				if ins.Op.info().form == fBinary && (ins.A == reg || ins.B == reg) {
					return true
				}
			}
			return false
		}
		if !names(0, 0) || !names(1, 2) {
			t.Errorf("-O%d: no instruction reads r0=n in chunk 0 and r2=k in chunk 1:\n%s", level, Disassemble(f))
		}
	}
}

// TestVerifyAcceptsBottomTestedLoops: a loop tests on entry and at its
// bottom, which branches back to the body's first instruction, so that
// instruction is reached from two places with the same types. flat's loop
// does so at every level: a jge.i and a jlt.i at -O0 and -O1, a jge.i and
// the stepjlt.ki of `i += 1` at -O2, and no jump.
func TestVerifyAcceptsBottomTestedLoops(t *testing.T) {
	want := map[int][2]Op{O0: {OpJgeInt, OpJltInt}, O1: {OpJgeInt, OpJltInt}, O2: {OpJgeInt, OpStepJltKI}}
	for _, level := range []int{O0, O1, O2} {
		p := compileSrc(t, verifySrc)
		if err := VerifyOptimize(p, level); err != nil {
			t.Fatalf("-O%d: %v", level, err)
		}
		f := p.Funcs[0]
		var entry, bottom int32 = -1, -1
		for pc, ins := range f.Chunks[0].Code {
			switch {
			case ins.Op == OpJump:
				t.Errorf("-O%d: pc %d: a jump in flat", level, pc)
			case ins.Op == want[level][0]:
				entry = int32(pc)
			case ins.Op == want[level][1]:
				bottom = int32(pc)
			}
		}
		if entry < 0 || bottom < 0 || *f.Chunks[0].Code[bottom].target() != entry+1 {
			t.Errorf("-O%d: flat's loop is not an entry %s and a bottom %s back to the body:\n%s", level, want[level][0], want[level][1], Disassemble(f))
		}
	}
}

// TestVerifyAcceptsEmptyBlockInTemplessChunk: an arm that is only a call
// without arguments has no temporaries, and its empty argument block sits
// at the end of the window, above the function's slots. The window model is
// the VM's — every chunk runs over NumSlots+NumTemps registers — so the
// block is inside it; internal/sem's TestDifferentialSpawnedCalls and
// internal/vm's spawnSrc run such chunks after verifying them.
func TestVerifyAcceptsEmptyBlockInTemplessChunk(t *testing.T) {
	const src = "def work():\n    pass\n\ndef main():\n    n = 3\n    parallel for i in range(n):\n        work()\n    background:\n        print()\n"
	p := compileSrc(t, src)
	f := p.Funcs[p.MainIndex]
	calls := 0
	for _, ch := range f.Chunks[1:] {
		for _, ins := range ch.Code {
			if ins.Op != OpCall && ins.Op != OpCallBuiltin {
				continue
			}
			calls++
			if ch.NumTemps != 0 || int(ins.B) != f.NumSlots || ins.C != 0 || f.NumSlots == 0 {
				t.Errorf("%s: block r%d..#%d in a chunk of %d temporaries above %d slots, want an empty block at the window's end",
					ins.Op, ins.B, ins.C, ch.NumTemps, f.NumSlots)
			}
		}
	}
	if calls != 2 {
		t.Fatalf("found %d calls in main's sub-chunks, want 2:\n%s", calls, DisassembleProgram(p))
	}
	for _, level := range []int{O0, O2} {
		if err := VerifyOptimize(compileSrc(t, src), level); err != nil {
			t.Errorf("-O%d: %v", level, err)
		}
	}
}
