package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Disassemble renders a compiled function for review, debugging and
// golden tests (`tetracompile -dis`). The format is line-oriented and
// stable: one instruction per line, pc in column one, mnemonic in column
// two, then the operands. Registers print as r<n>, with the variable's
// source name appended (r0=i) when the function carries slot names;
// constant operands and the optimizer's fused opcodes get a trailing
// comment spelling out their meaning, and call instructions show their
// inline-cache site id.
func Disassemble(f *Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (params=%d slots=%d shared=%v)\n", f.Name, len(f.Params), f.NumSlots, f.Shared)
	for ci := range f.Chunks {
		ch := &f.Chunks[ci]
		fmt.Fprintf(&sb, " chunk %d: (temps=%d)\n", ci, ch.NumTemps)
		for pc, ins := range ch.Code {
			fmt.Fprintf(&sb, "  %4d %-10s %s\n", pc, ins.Op, operands(f, ins))
		}
	}
	return sb.String()
}

// reg renders a register operand, naming variable slots when the
// compiler recorded their source names.
func (f *Func) reg(i int32) string {
	if int(i) < len(f.SlotNames) && f.SlotNames[i] != "" {
		return fmt.Sprintf("r%d=%s", i, f.SlotNames[i])
	}
	return fmt.Sprintf("r%d", i)
}

func (f *Func) constStr(i int32) string {
	if int(i) < len(f.Consts) {
		c := f.Consts[i]
		if c.K == value.Str {
			return fmt.Sprintf("%q", c.Str())
		}
		return c.String()
	}
	return "?"
}

// operands renders one instruction's operand list per the opcode's
// encoding.
func operands(f *Func, ins Instr) string {
	r := f.reg
	switch ins.Op {
	case OpNop, OpReturnNone:
		return ""
	case OpConst:
		return fmt.Sprintf("%s, %s", r(ins.Dst), f.constStr(ins.A))
	case OpMove, OpToReal, OpNeg, OpNot:
		return fmt.Sprintf("%s, %s", r(ins.Dst), r(ins.A))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return fmt.Sprintf("%s, %s, %s", r(ins.Dst), r(ins.A), r(ins.B))
	case OpJump:
		return fmt.Sprintf("-> %d", ins.A)
	case OpJumpIfFalse, OpJumpIfTrue:
		return fmt.Sprintf("%s -> %d", r(ins.B), ins.A)
	case OpCall:
		return fmt.Sprintf("%s, fn#%d, args %s..#%d   ; ic site %d", dst(f, ins.Dst), ins.A, r(ins.B), ins.C, ins.S)
	case OpCallBuiltin:
		return fmt.Sprintf("%s, builtin#%d, args %s..#%d   ; ic site %d", dst(f, ins.Dst), ins.A, r(ins.B), ins.C, ins.S)
	case OpReturn:
		return r(ins.A)
	case OpIndex:
		return fmt.Sprintf("%s, %s[%s]", r(ins.Dst), r(ins.A), r(ins.B))
	case OpSetIndex:
		return fmt.Sprintf("%s[%s] = %s", r(ins.A), r(ins.B), r(ins.C))
	case OpArray:
		return fmt.Sprintf("%s, %s..#%d, type#%d", r(ins.Dst), r(ins.A), ins.B, ins.C)
	case OpRange:
		return fmt.Sprintf("%s, [%s .. %s]", r(ins.Dst), r(ins.A), r(ins.B))
	case OpForIter:
		return fmt.Sprintf("%s, state %s, exit -> %d", r(ins.Dst), r(ins.A), ins.B)
	case OpParallel, OpBackground:
		return fmt.Sprintf("chunks [%d, %d)", ins.A, ins.A+ins.B)
	case OpParFor:
		return fmt.Sprintf("chunk %d, seq %s, var %s", ins.A, r(ins.B), r(ins.C))
	case OpLockAcquire, OpLockRelease:
		return fmt.Sprintf("lock#%d", ins.A)
	case OpArithConst:
		return fmt.Sprintf("%s, %s, %s   ; %s = %s %s %s", r(ins.Dst), r(ins.A), f.constStr(ins.B),
			r(ins.Dst), r(ins.A), Op(ins.C), f.constStr(ins.B))
	case OpArithConstL:
		return fmt.Sprintf("%s, %s, %s   ; %s = %s %s %s", r(ins.Dst), f.constStr(ins.B), r(ins.A),
			r(ins.Dst), f.constStr(ins.B), Op(ins.C), r(ins.A))
	case OpCmpJump:
		cmp, sense := UnpackCmp(ins.C)
		return fmt.Sprintf("%s, %s -> %d   ; jump if %s %s", r(ins.A), r(ins.B), ins.Dst, cmp, senseStr(sense))
	case OpCmpConstJump:
		cmp, constLeft, sense := UnpackCmpConst(ins.C)
		l, rr := f.reg(ins.A), f.constStr(ins.B)
		if constLeft {
			l, rr = rr, l
		}
		return fmt.Sprintf("%s, %s -> %d   ; jump if %s %s", l, rr, ins.Dst, cmp, senseStr(sense))
	}
	return fmt.Sprintf("%d %d %d %d", ins.Dst, ins.A, ins.B, ins.C)
}

// dst renders a call destination, which may be -1 (value discarded).
func dst(f *Func, d int32) string {
	if d < 0 {
		return "_"
	}
	return f.reg(d)
}

func senseStr(sense bool) string {
	if sense {
		return "true"
	}
	return "false"
}

// DisassembleProgram renders every function of a compiled program.
func DisassembleProgram(p *Program) string {
	var sb strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(Disassemble(f))
	}
	if len(p.LockNames) > 0 {
		fmt.Fprintf(&sb, "\nlocks: %s\n", strings.Join(p.LockNames, ", "))
	}
	fmt.Fprintf(&sb, "sites: %d\n", p.NumSites)
	return sb.String()
}
