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
// source name appended (r0=i) when the function carries slot names, and
// cells as c<n>=name. The header lists the shared variables' cells
// (shared=[c1=count]), or says shared=false when there are none. A typed
// opcode's mnemonic carries its operator and operand type (add.i, jlt.ik,
// mod.rk, index.a: i int, r real, a array, k constant operand, l constant
// on the left; stepjlt.ki's suffix names its step and then its limit); the
// untyped fused opcodes, whose operator is in an operand, get a trailing
// comment spelling it out.
func Disassemble(f *Func) string {
	var sb strings.Builder
	shared := "false"
	if f.Shared != nil {
		var cells []string
		for slot, sh := range f.Shared {
			if sh {
				cells = append(cells, f.cell(int32(slot)))
			}
		}
		shared = "[" + strings.Join(cells, " ") + "]"
	}
	fmt.Fprintf(&sb, "func %s (params=%d slots=%d shared=%s)\n", f.Name, len(f.Params), f.NumSlots, shared)
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
func (f *Func) reg(i int32) string { return f.named('r', i) }

// cell renders the cell operand of OpLoadCell and OpStoreCell, and
// OpParFor's induction variable when it is shared.
func (f *Func) cell(i int32) string { return f.named('c', i) }

func (f *Func) named(prefix byte, i int32) string {
	if int(i) < len(f.SlotNames) && f.SlotNames[i] != "" {
		return fmt.Sprintf("%c%d=%s", prefix, i, f.SlotNames[i])
	}
	return fmt.Sprintf("%c%d", prefix, i)
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
	r, k := f.reg, f.constStr
	switch ins.Op {
	case OpCall:
		return fmt.Sprintf("%s, fn#%d, args %s..#%d", dst(f, ins.Dst), ins.A, r(ins.B), ins.C)
	case OpTailCall:
		return fmt.Sprintf("fn#%d, args %s..#%d", ins.A, r(ins.B), ins.C)
	case OpCallBuiltin:
		return fmt.Sprintf("%s, builtin#%d, args %s..#%d", dst(f, ins.Dst), ins.A, r(ins.B), ins.C)
	case OpIndex, OpIndexArr:
		return fmt.Sprintf("%s, %s[%s]", r(ins.Dst), r(ins.A), r(ins.B))
	case OpRange:
		return fmt.Sprintf("%s, [%s .. %s]", r(ins.Dst), r(ins.A), r(ins.B))
	case OpArithConst:
		return fmt.Sprintf("%s, %s, %s   ; %s = %s %s %s", r(ins.Dst), r(ins.A), k(ins.B),
			r(ins.Dst), r(ins.A), Op(ins.C), k(ins.B))
	case OpArithConstL:
		return fmt.Sprintf("%s, %s, %s   ; %s = %s %s %s", r(ins.Dst), k(ins.B), r(ins.A),
			r(ins.Dst), k(ins.B), Op(ins.C), r(ins.A))
	case OpCmpJump:
		cmp, sense := UnpackCmp(ins.C)
		return fmt.Sprintf("%s, %s -> %d   ; jump if %s %s", r(ins.A), r(ins.B), ins.Dst, cmp, senseStr(sense))
	case OpCmpConstJump:
		cmp, sense := UnpackCmp(ins.C)
		return fmt.Sprintf("%s, %s -> %d   ; jump if %s %s", r(ins.A), k(ins.B), ins.Dst, cmp, senseStr(sense))
	}
	switch ins.Op.info().form {
	case fNone:
		return ""
	case fConst:
		return fmt.Sprintf("%s, %s", r(ins.Dst), k(ins.A))
	case fUnary:
		return fmt.Sprintf("%s, %s", r(ins.Dst), r(ins.A))
	case fBinary:
		return fmt.Sprintf("%s, %s, %s", r(ins.Dst), r(ins.A), r(ins.B))
	case fBinaryK:
		return fmt.Sprintf("%s, %s, %s", r(ins.Dst), r(ins.A), k(ins.B))
	case fJump:
		return fmt.Sprintf("-> %d", ins.A)
	case fJumpIf:
		return fmt.Sprintf("%s -> %d", r(ins.B), ins.A)
	case fCmpJump:
		return fmt.Sprintf("%s, %s -> %d", r(ins.A), r(ins.B), ins.Dst)
	case fCmpJumpK:
		return fmt.Sprintf("%s, %s -> %d", r(ins.A), k(ins.B), ins.Dst)
	case fReturn:
		return r(ins.A)
	case fSetIndex:
		return fmt.Sprintf("%s[%s] = %s", r(ins.A), r(ins.B), r(ins.C))
	case fSetIndexK:
		return fmt.Sprintf("%s[%s] = %s", r(ins.A), r(ins.B), k(ins.C))
	case fStepJump:
		step, limit := r(ins.B), r(ins.C)
		stepK, limitK := ins.Op.stepConsts()
		if stepK {
			step = k(ins.B)
		}
		if limitK {
			limit = k(ins.C)
		}
		return fmt.Sprintf("%s, %s, %s -> %d", r(ins.A), step, limit, ins.Dst)
	case fArray:
		return fmt.Sprintf("%s, %s..#%d, type#%d", r(ins.Dst), r(ins.A), ins.B, ins.C)
	case fForIter:
		to := "exit"
		if ins.Op == OpForNext {
			to = "loop"
		}
		return fmt.Sprintf("%s, state %s, %s -> %d", r(ins.Dst), r(ins.A), to, ins.B)
	case fSpawn:
		return fmt.Sprintf("chunks [%d, %d)", ins.A, ins.A+ins.B)
	case fParFor:
		v := r(ins.C)
		if f.SharedSlot(ins.C) {
			v = f.cell(ins.C)
		}
		return fmt.Sprintf("chunk %d, seq %s, var %s", ins.A, r(ins.B), v)
	case fLock:
		return fmt.Sprintf("lock#%d", ins.A)
	case fLoadCell:
		return fmt.Sprintf("%s, %s", r(ins.Dst), f.cell(ins.A))
	case fStoreCell:
		return fmt.Sprintf("%s, %s", f.cell(ins.Dst), r(ins.A))
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
	return sb.String()
}
