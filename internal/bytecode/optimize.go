package bytecode

// The optimizer pipeline over the register IR. Compiled chunks pass
// through five phases, each preserving observable program behaviour
// exactly (output bytes, runtime errors and their positions, parallel
// semantics). None of them evaluates an expression: the compiler loads a
// literal, negated or widened to real as its context asks, with one
// OpConst (compile.go's constant), and every operator runs at run time.
// Loops need no phase of their own: the compiler already emits each one
// with a test on entry and a test at its bottom (compile.go).
//
//  1. dead-store removal  — writes to temporaries that no path reads
//                            before the next write are deleted (only for
//                            instructions that cannot raise).
//  2. jump threading      — a jump whose target is another unconditional
//                            jump is retargeted to the final destination.
//  3. dead-code removal   — instructions unreachable from the chunk entry
//                            are deleted, with all jump targets remapped.
//  4. superinstruction    — compare+branch pairs fuse into a
//     fusion                 compare-jump, then a constant operand folds
//                            into its constant form, and const+arith
//                            pairs into constant-operand arithmetic, and
//                            const+setidx.a into setidx.ak. Typed
//                            instructions fuse into typed
//                            superinstructions whose operator is part of
//                            the opcode (jlt.ik, add.ik, mod.rk): the
//                            branch sense folds in by negating the
//                            comparison and a constant left operand by
//                            mirroring it. Untyped ones, whose operands
//                            are strings, bools or arrays, fuse into
//                            OpCmpJump/OpCmpConstJump/OpArithConst/L,
//                            which carry the operator in C. A div or mod
//                            by a constant zero is not fused: it raises.
//                            With a variable slot as both
//                            destination and source (`i = i + 1`) the
//                            arith-const form is the load-arith-store
//                            superinstruction: one dispatch for what the
//                            stack IR spent five on.
//  5. step-branch fusion  — an induction step (add.ik or add.i on a
//                            register) followed by a loop's bottom test
//                            jlt.ik or jlt.i of that register becomes one
//                            stepjlt: `i += 1` and `while i < n` in one
//                            dispatch. It is a taken backward branch, so
//                            it polls the stop flag as the test did.
//
// Every phase is differentially verified: the golden corpus and the
// cross-backend differential tests must produce byte-identical output at
// O0, O1 and O2 (the parity harness, internal/parity, runs them at every
// level).

import (
	"fmt"

	"repro/internal/sem"
	"repro/internal/types"
)

// Optimization levels.
const (
	O0 = 0 // no optimization: execute exactly what the compiler emitted
	O1 = 1 // dead stores + jump threading + DCE
	O2 = 2 // O1 plus superinstruction and step-branch fusion

	// DefaultLevel is what the fast path uses unless told otherwise.
	DefaultLevel = O2
)

// Optimize runs the optimizer pipeline over every chunk of every function
// at the given level, mutating and returning p. Level <= 0 is a no-op;
// levels above O2 clamp to O2.
func Optimize(p *Program, level int) *Program {
	optimize(p, level, nil) // nothing to fail without a check
	return p
}

// VerifyOptimize is Optimize for tests, with Verify run on what Compile
// produced and again behind every phase that changed a chunk. It stops at
// the first violation and names the phase that introduced it.
func VerifyOptimize(p *Program, level int) error {
	if err := Verify(p); err != nil {
		return fmt.Errorf("after compile: %w", err)
	}
	return optimize(p, level, func(ph phase, f *Func, ci int) error {
		if err := Verify(p); err != nil {
			return fmt.Errorf("after %s of %s chunk %d: %w", ph.name, f.Name, ci, err)
		}
		return nil
	})
}

// optimize is the pipeline's one driver. check, when not nil, is called
// behind every phase that changed a chunk, and its first error ends the
// run.
func optimize(p *Program, level int, check func(ph phase, f *Func, ci int) error) error {
	var o optimizer
	for _, f := range p.Funcs {
		for ci := range f.Chunks {
			run := func(ph phase) (bool, error) {
				if !ph.run(&o, f, &f.Chunks[ci]) {
					return false, nil
				}
				if check == nil {
					return true, nil
				}
				return true, check(ph, f, ci)
			}
			for changed := level >= O1; changed; {
				changed = false
				for _, ph := range o1Phases {
					c, err := run(ph)
					if err != nil {
						return err
					}
					changed = changed || c
				}
			}
			if level >= O2 {
				for _, ph := range o2Phases {
					if _, err := run(ph); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// A phase rewrites one chunk and reports whether it changed anything.
type phase struct {
	name string
	run  func(o *optimizer, f *Func, ch *Chunk) bool
}

// An optimizer holds the working storage of one Optimize call, which
// every phase reuses instead of allocating its own per chunk or query.
type optimizer struct {
	marks []bool  // jumpTargets' targets or removeDeadCode's reachable pcs
	seen  []bool  // regLive's visited pcs
	stack []int   // pcs still to visit, in regLive or removeDeadCode
	remap []int32 // compact's old pc → new pc
}

// bools returns *buf resized to n and cleared.
func bools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

var (
	// Dead-store removal can expose more dead stores and threading more
	// dead code, so the O1 phases iterate to a fixpoint. Each round strictly
	// shrinks the chunk or retargets a jump for good, so it terminates.
	o1Phases = []phase{
		{name: "dead-store removal", run: (*optimizer).removeDeadStores},
		{name: "jump threading", run: (*optimizer).threadJumps},
		{name: "dead-code removal", run: (*optimizer).removeDeadCode},
	}
	// The O2 phases run once, in this order.
	o2Phases = []phase{
		{name: "compare-jump fusion", run: (*optimizer).fuseCmpJump},
		{name: "compare-constant fusion", run: (*optimizer).fuseCmpConst},
		{name: "constant-operand fusion", run: (*optimizer).fuseConstOperand},
		{name: "step-branch fusion", run: (*optimizer).fuseStep},
	}
)

// jumpTargets returns, for each pc, whether some instruction jumps there:
// another predecessor may arrive with different register contents, so a
// fusion window may not span one.
func (o *optimizer) jumpTargets(ch *Chunk) []bool {
	t := bools(&o.marks, len(ch.Code)+1)
	for i := range ch.Code {
		if a := ch.Code[i].target(); a != nil && *a >= 0 && int(*a) <= len(ch.Code) {
			t[*a] = true
		}
	}
	return t
}

// readsReg reports whether ins, an instruction of f, reads register reg.
func readsReg(f *Func, ins Instr, reg int32) bool {
	switch ins.Op.info().form {
	case fUnary, fBinaryK, fBinaryKL, fCmpJumpK, fReturn, fStoreCell:
		return ins.A == reg
	case fBinary, fCmpJump:
		return ins.A == reg || ins.B == reg
	case fJumpIf:
		return ins.B == reg
	case fParFor:
		return ins.B == reg || spawnReads(f, ins.A, 1, reg)
	case fSpawn:
		return spawnReads(f, ins.A, ins.B, reg)
	case fSetIndex:
		return ins.A == reg || ins.B == reg || ins.C == reg
	case fSetIndexK:
		return ins.A == reg || ins.B == reg
	case fStepJump:
		step, limit := ins.Op.stepConsts()
		return ins.A == reg || !step && ins.B == reg || !limit && ins.C == reg
	case fCall:
		return reg >= ins.B && reg < ins.B+ins.C
	case fArray:
		return reg >= ins.A && reg < ins.A+ins.B
	case fForIter:
		return ins.A == reg || ins.A+1 == reg
	}
	return false
}

// spawnReads reports whether the thread bodies in chunks [first,
// first+n), or the threads they spawn in turn, read slot register reg. A
// body starts with a copy of its spawner's slot registers, so the spawning
// instruction is where the spawner's value is read, and a store before it
// is live.
func spawnReads(f *Func, first, n, reg int32) bool {
	if int(reg) >= f.NumSlots {
		return false
	}
	for ci := max(first, 0); ci < first+n && int(ci) < len(f.Chunks); ci++ {
		for _, ins := range f.Chunks[ci].Code {
			if readsReg(f, ins, reg) {
				return true
			}
		}
	}
	return false
}

// writesReg reports whether ins definitely overwrites register reg.
func writesReg(ins Instr, reg int32) bool {
	switch ins.Op.info().form {
	case fConst, fUnary, fBinary, fBinaryK, fBinaryKL, fArray, fLoadCell:
		return ins.Dst == reg
	case fStepJump:
		return ins.A == reg
	case fCall:
		return ins.Dst == reg && ins.Dst >= 0
	case fForIter:
		return ins.Dst == reg || ins.A == reg || ins.A+1 == reg
	}
	return false
}

// deadStoreOK are the opcodes dead-store removal may delete: writes with
// no side effects and no possible runtime error. OpLoadCell is not one: a
// cell access is a critical section the program's threads can observe.
func deadStoreOK(op Op) bool {
	switch op {
	case OpConst, OpMove, OpToReal, OpNot:
		return true
	}
	return op.isCompare()
}

// removeDeadStores deletes error-free writes to temporaries no path reads
// before the next write.
func (o *optimizer) removeDeadStores(f *Func, ch *Chunk) bool {
	code := ch.Code
	changed := false
	for pc := range code {
		ins := code[pc]
		if !deadStoreOK(ins.Op) || int(ins.Dst) < f.NumSlots {
			continue
		}
		if o.regLive(f, ch, pc+1, ins.Dst) {
			continue
		}
		code[pc] = Instr{Op: OpNop}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// regLive reports whether some path from pc in f's chunk ch reads
// register reg before writing it.
func (o *optimizer) regLive(f *Func, ch *Chunk, pc int, reg int32) bool {
	code := ch.Code
	// Most temporaries are read, or written again, a few instructions on:
	// follow straight-line code before paying for a visited set.
	for ; pc < len(code); pc++ {
		ins := &code[pc]
		if readsReg(f, *ins, reg) {
			return true
		}
		if writesReg(*ins, reg) {
			return false
		}
		if next, n := successors(ins, pc); n != 1 || next[0] != pc+1 {
			break
		}
	}
	seen := bools(&o.seen, len(code))
	o.stack = append(o.stack[:0], pc)
	for len(o.stack) > 0 {
		p := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		if p < 0 || p >= len(code) || seen[p] {
			continue
		}
		seen[p] = true
		ins := code[p]
		if readsReg(f, ins, reg) {
			return true
		}
		if writesReg(ins, reg) {
			continue
		}
		next, n := successors(&ins, p)
		o.stack = append(o.stack, next[:n]...)
	}
	return false
}

// successors returns the pcs control can reach from ins at pc.
func successors(ins *Instr, pc int) (next [2]int, n int) {
	switch ins.Op {
	case OpJump:
		return [2]int{int(ins.A)}, 1
	case OpReturn, OpReturnNone:
		return next, 0
	}
	if t := ins.target(); t != nil {
		return [2]int{int(*t), pc + 1}, 2
	}
	return [2]int{pc + 1}, 1
}

// threadJumps retargets jumps whose destination is an unconditional jump,
// following chains with a visit bound so degenerate cycles terminate.
func (*optimizer) threadJumps(_ *Func, ch *Chunk) bool {
	code := ch.Code
	final := func(t int32) int32 {
		for hops := 0; hops <= len(code); hops++ {
			if int(t) >= len(code) || code[t].Op != OpJump || code[t].A == t {
				return t
			}
			t = code[t].A
		}
		return t
	}
	changed := false
	for i := range code {
		if t := code[i].target(); t != nil {
			if nt := final(*t); nt != *t {
				*t = nt
				changed = true
			}
		}
	}
	return changed
}

// removeDeadCode deletes instructions unreachable from the chunk entry.
func (o *optimizer) removeDeadCode(_ *Func, ch *Chunk) bool {
	code := ch.Code
	if len(code) == 0 {
		return false
	}
	reach := bools(&o.marks, len(code))
	o.stack = append(o.stack[:0], 0)
	reach[0] = true
	for len(o.stack) > 0 {
		pc := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		next, n := successors(&code[pc], pc)
		for _, s := range next[:n] {
			if s >= 0 && s < len(code) && !reach[s] {
				reach[s] = true
				o.stack = append(o.stack, s)
			}
		}
	}
	changed := false
	for pc := range code {
		if !reach[pc] && code[pc].Op != OpNop {
			code[pc] = Instr{Op: OpNop}
			changed = true
		}
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// tempDeadPast reports whether temporary reg is dead on every path
// leaving the instruction at pc (the second element of a fusion window).
func (o *optimizer) tempDeadPast(f *Func, ch *Chunk, pc int, reg int32) bool {
	next, n := successors(&ch.Code[pc], pc)
	for _, s := range next[:n] {
		if o.regLive(f, ch, s, reg) {
			return false
		}
	}
	return true
}

// fuseCmpJump merges a comparison with the conditional branch consuming
// its result. The branch must not be a jump target (the pair would be
// entered mid-window), the comparison's destination must be a temporary,
// and that temporary must be dead past the branch. A typed comparison
// becomes the typed compare-jump of the same operator, negated when the
// branch is taken on false; an untyped one becomes OpCmpJump, which
// carries operator and sense in C.
func (o *optimizer) fuseCmpJump(f *Func, ch *Chunk) bool {
	targets := o.jumpTargets(ch)
	code := ch.Code
	changed := false
	for pc := 0; pc+1 < len(code); pc++ {
		ins, next := code[pc], code[pc+1]
		if !ins.Op.isCompare() || targets[pc+1] || int(ins.Dst) < f.NumSlots {
			continue
		}
		if (next.Op != OpJumpIfFalse && next.Op != OpJumpIfTrue) || next.B != ins.Dst {
			continue
		}
		if !o.tempDeadPast(f, ch, pc+1, ins.Dst) {
			continue
		}
		sense := next.Op == OpJumpIfTrue
		fused := Instr{Op: OpCmpJump, Dst: next.A, A: ins.A, B: ins.B, C: PackCmp(ins.Op, sense)}
		if in := ins.Op.info(); in.kind != nil {
			op := in.op
			if !sense {
				op = negated(op)
			}
			fused.Op, fused.C = typedCmpJump(op, in.kind), 0
		}
		code[pc] = fused
		code[pc+1] = Instr{Op: OpNop}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// typedCmpJump returns the register-register compare-jump for operator op
// over operands of type kind; its constant form is cmpJumpK away.
func typedCmpJump(op sem.Op, kind *types.Type) Op {
	if kind.Kind() == types.Int {
		return OpJeqInt + Op(op-sem.Eq)
	}
	return OpJeqReal + Op(op-sem.Eq)
}

const cmpJumpK = OpJeqIntK - OpJeqInt

// constOperand finds the constant that the instruction at use reads from
// temporary reg: the OpConst above it that wrote reg, with straight-line
// code that leaves reg alone in between (in a shared function a cell load
// sits there) and reg dead afterwards. It returns the OpConst's pc, or -1
// when the operand cannot be folded into the instruction.
func (o *optimizer) constOperand(f *Func, ch *Chunk, targets []bool, use int, reg int32) int {
	if int(reg) < f.NumSlots {
		return -1
	}
	for pc := use - 1; pc >= 0 && !targets[pc+1]; pc-- {
		ins := ch.Code[pc]
		if ins.Op == OpConst && ins.Dst == reg {
			if o.tempDeadPast(f, ch, use, reg) {
				return pc
			}
			return -1
		}
		if _, n := successors(&ins, pc); n != 1 || ins.Op == OpJump || readsReg(f, ins, reg) || writesReg(ins, reg) {
			return -1
		}
	}
	return -1
}

// fuseCmpConst folds a constant operand into a compare-jump produced by
// fuseCmpJump. The typed forms compare reg A with the constant, so a
// constant left operand mirrors the operator; OpCmpConstJump records the
// side in C.
func (o *optimizer) fuseCmpConst(f *Func, ch *Chunk) bool {
	targets := o.jumpTargets(ch)
	code := ch.Code
	changed := false
	for pc := range code {
		ins := code[pc]
		if ins.Op.info().form != fCmpJump || ins.A == ins.B { // a degenerate k<k stays
			continue
		}
		reg, constLeft := ins.A, false
		def := o.constOperand(f, ch, targets, pc, ins.B)
		if def < 0 {
			reg, constLeft = ins.B, true
			def = o.constOperand(f, ch, targets, pc, ins.A)
		}
		if def < 0 {
			continue
		}
		fused := Instr{Dst: ins.Dst, A: reg, B: code[def].A}
		if in := ins.Op.info(); in.kind != nil {
			op := in.op
			if constLeft {
				op = mirrored(op)
			}
			fused.Op = typedCmpJump(op, in.kind) + cmpJumpK
		} else {
			cmp, sense := UnpackCmp(ins.C)
			fused.Op, fused.C = OpCmpConstJump, PackCmpConst(cmp, constLeft, sense)
		}
		code[pc] = fused
		code[def] = Instr{Op: OpNop}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// fuseConstOperand folds a constant operand into the instruction
// consuming it: an arithmetic one becomes Dst = A op K or Dst = K op A, and
// an array store of a constant setidx.ak. The fused instruction keeps the
// consumer's source position so a runtime error (division by zero, an
// index out of range) reports what O0 reports. With a variable slot as
// both source and destination the arithmetic form is the load-arith-store
// superinstruction of the hot loop shapes (`i = i + 1`,
// `s = s % 1000003`).
//
// A typed instruction becomes the typed form of its operator — add.ik,
// mod.rk, and sub.ikl for a constant on the left of a non-commutative
// operator (commutative ones swap) — except a div or mod whose constant
// divisor is zero: the constant-divisor forms do not test the divisor, so
// that one stays as it is and raises the error. An untyped instruction is a
// string +, which becomes OpArithConst or OpArithConstL.
func (o *optimizer) fuseConstOperand(f *Func, ch *Chunk) bool {
	targets := o.jumpTargets(ch)
	code := ch.Code
	changed := false
	for pc := range code {
		ins := code[pc]
		if ins.Op == OpSetIndexArr {
			if def := o.constOperand(f, ch, targets, pc, ins.C); def >= 0 {
				code[pc].Op, code[pc].C = OpSetIndexArrK, code[def].A
				code[def] = Instr{Op: OpNop}
				changed = true
			}
			continue
		}
		if !ins.Op.isArith() || ins.A == ins.B {
			continue
		}
		reg, constLeft := ins.A, false
		def := o.constOperand(f, ch, targets, pc, ins.B)
		if def < 0 {
			reg, constLeft = ins.B, true
			def = o.constOperand(f, ch, targets, pc, ins.A)
		}
		if def < 0 {
			continue
		}
		in, k := ins.Op.info(), code[def].A
		if !constLeft && (in.op == sem.Div || in.op == sem.Mod) && f.Consts[k].AsReal() == 0 {
			continue
		}
		fused := Instr{Op: OpArithConst, Dst: ins.Dst, A: reg, B: k, C: int32(ins.Op)}
		if constLeft {
			fused.Op = OpArithConstL
		}
		if in.kind != nil {
			fused.Op, fused.C = typedArithConst(in.op, in.kind, constLeft), 0
		}
		code[pc] = fused
		code[def] = Instr{Op: OpNop}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// typedArithConst returns the constant-operand opcode for operator op over
// operands of type kind, with the constant on the left or the right.
func typedArithConst(op sem.Op, kind *types.Type, constLeft bool) Op {
	k, kl := OpAddIntK, OpSubIntKL
	if kind.Kind() == types.Real {
		k, kl = OpAddRealK, OpSubRealKL
	}
	if constLeft {
		switch op {
		case sem.Sub:
			return kl
		case sem.Div:
			return kl + 1
		case sem.Mod:
			return kl + 2
		}
	}
	return k + Op(op-sem.Add)
}

// fuseStep merges a loop's induction step into its bottom test: an
// add.ik or add.i that adds to a register, followed by a backward jlt.ik
// or jlt.i of that register, becomes the stepjlt of its two operand kinds.
// The test must not be a jump target of its own (a continue lands on it,
// skipping the step), and neither the step nor the limit may be the
// register itself, which the fused instruction writes between reading the
// one and the other. An int add cannot raise, so the fused instruction
// keeps the add's position; a step limit that trips there is inside the
// loop, as before.
func (o *optimizer) fuseStep(_ *Func, ch *Chunk) bool {
	targets := o.jumpTargets(ch)
	code := ch.Code
	changed := false
	for pc := 0; pc+1 < len(code); pc++ {
		add, jlt := code[pc], code[pc+1]
		if (add.Op != OpAddIntK && add.Op != OpAddInt) || add.Dst != add.A || targets[pc+1] {
			continue
		}
		if (jlt.Op != OpJltIntK && jlt.Op != OpJltInt) || jlt.A != add.A || int(jlt.Dst) > pc {
			continue
		}
		if add.Op == OpAddInt && add.B == add.A || jlt.Op == OpJltInt && jlt.B == add.A {
			continue
		}
		op := OpStepJltII
		if add.Op == OpAddIntK {
			op += OpStepJltKI - OpStepJltII
		}
		if jlt.Op == OpJltIntK {
			op += OpStepJltIK - OpStepJltII
		}
		code[pc] = Instr{Op: op, Dst: jlt.Dst, A: add.A, B: add.B, C: jlt.B}
		code[pc+1] = Instr{Op: OpNop}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// compact removes OpNop placeholders and remaps every jump target across
// the deletion. A target equal to len(code) (a jump to the chunk end) maps
// to the new end.
func (o *optimizer) compact(ch *Chunk) {
	code := ch.Code
	if cap(o.remap) < len(code)+1 {
		o.remap = make([]int32, len(code)+1)
	}
	remap := o.remap[:len(code)+1]
	n := int32(0)
	for i, ins := range code {
		remap[i] = n
		if ins.Op != OpNop {
			n++
		}
	}
	remap[len(code)] = n

	// In place: an instruction only ever moves down.
	newCode, newPos := code[:0], ch.Pos[:0]
	for i, ins := range code {
		if ins.Op == OpNop {
			continue
		}
		if t := ins.target(); t != nil {
			*t = remap[*t]
		}
		newCode = append(newCode, ins)
		newPos = append(newPos, ch.Pos[i])
	}
	ch.Code = newCode
	ch.Pos = newPos
}
