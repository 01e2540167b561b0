package bytecode

// The optimizer pipeline over the register IR. Each phase preserves
// observable program behaviour exactly (output bytes, runtime errors and
// their positions, the recursion bound, parallel semantics). None of them
// evaluates an expression: the compiler loads a literal, negated or
// widened to real as its context asks, with one OpConst (compile.go's
// constant), and every operator runs at run time. Loops need no phase of
// their own: the compiler already emits each one with a test on entry and
// a test at its bottom (compile.go).
//
// Functions are optimised callees first, each chunk by the phases below in
// this order:
//
//  0. leaf inlining (O2)  — a call of a small leaf (smallLeaf: one chunk, no
//                            shared slot, lock, user call or backward
//                            branch, at most inlineMax instructions once
//                            optimised itself) becomes the leaf's body over
//                            fresh temporaries, in a caller no recursive
//                            function can reach.
//  1. jump threading      — a jump whose target is another unconditional
//                            jump is retargeted to the final destination.
//  2. dead-code removal   — instructions unreachable from the chunk entry,
//                            and jumps to the next instruction, are
//                            deleted, with all jump targets remapped.
//  3. superinstruction    — compare+branch pairs fuse into a
//     fusion                 compare-jump, then a constant right operand
//                            folds into its constant form, and
//                            const+arith pairs into constant-operand
//                            arithmetic (a commutative operator's
//                            constant left operand swaps to the right),
//                            and const+setidx.a into setidx.ak. Typed
//                            instructions fuse into typed
//                            superinstructions whose operator is part of
//                            the opcode (jlt.ik, add.ik, mod.rk), the
//                            branch sense folded in by negating the
//                            comparison. Untyped ones, whose operands
//                            are strings, bools or arrays, fuse into
//                            OpCmpJump/OpCmpConstJump/OpArithConst/L,
//                            which carry the operator in C. A div or mod
//                            by a constant zero is not fused: it raises.
//                            With a variable slot as both destination
//                            and source (`i = i + 1`) the arith-const
//                            form is the load-arith-store
//                            superinstruction.
//  4. step-branch fusion  — an induction step (add.ik or add.i on a
//                            register) followed by a loop's bottom test
//                            jlt.ik or jlt.i of that register becomes one
//                            stepjlt: `i += 1` and `while i < n` in one
//                            dispatch. It is a taken backward branch, so
//                            it polls the stop flag as the test did.
//  5. tail calls          — in chunk 0, a self call whose result the next
//                            instruction returns (or, without a result,
//                            a self call before retnone) becomes
//                            tailcall, which the VM runs in place.
//
// Phases 1–2 are O1 and iterate to a fixpoint; 0 and 3–5 are O2 and run
// once. Each must change some benchmark or test program (TestEveryPhasePays).
// Every phase is differentially verified: the golden corpus and the
// cross-backend differential tests must produce byte-identical output at
// O0, O1 and O2 (the parity harness, internal/parity, runs them at every
// level), and VerifyOptimize runs Verify behind each one.

import (
	"fmt"
	"sync"

	"repro/internal/rt"
	"repro/internal/sem"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/value"
)

// Optimization levels.
const (
	O0 = 0 // no optimization: execute exactly what the compiler emitted
	O1 = 1 // jump threading + DCE
	O2 = 2 // O1 plus leaf inlining, fusion and tail calls

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
	if level <= O0 {
		return nil
	}
	o := optimizers.Get().(*optimizer)
	o.prog = p
	defer func() {
		o.prog = nil
		// As with the compiler's scratch, storage sized by an outsize
		// chunk or program is dropped, not kept.
		if max(cap(o.marks), cap(o.code), cap(o.ints)) <= maxScratch {
			optimizers.Put(o)
		}
	}()
	o.plan()
	for _, fi := range o.order {
		f := p.Funcs[fi]
		o.self = fi
		for ci := range f.Chunks {
			run := func(ph phase) (bool, error) {
				if !ph.run(o, f, &f.Chunks[ci]) {
					return false, nil
				}
				if check == nil {
					return true, nil
				}
				return true, check(ph, f, ci)
			}
			if level >= O2 {
				if _, err := run(inlinePhase); err != nil {
					return err
				}
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
		o.leaf[fi] = level >= O2 && smallLeaf(f)
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
// Between calls it waits in optimizers, so that a run of small programs
// (a compile service's usual load) allocates it once. marks is sized by
// the largest chunk seen, code by the largest with a leaf inlined, and
// ints by the function count.
type optimizer struct {
	prog  *Program
	order []int32 // function indices, callees first
	self  int32   // the index of the function being optimised
	into  []bool  // per function: no recursive function reaches it, so leaves may be inlined into it
	leaf  []bool  // per function: optimised, and a small leaf
	ints  []int32 // plan's storage for order and its call graph
	flags []bool  // plan's storage for into, leaf and its call graph
	marks []bool  // jumpTargets' targets or removeDeadCode's reachable pcs
	seen  []bool  // regLive's visited pcs
	stack []int   // pcs still to visit, in regLive or removeDeadCode
	remap []int32 // compact's or the inliner's old pc → new pc
	gat   []int32 // the inliner's leaf pc → new pc
	code  []Instr // the inliner's new code and its positions
	pos   []token.Pos
}

var optimizers = sync.Pool{New: func() any { return new(optimizer) }}

// cleared returns *buf resized to n and cleared.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

var (
	// Threading can expose dead code, and deleting that a jump to the next
	// instruction, so the O1 phases iterate to a fixpoint. Each round strictly
	// shrinks the chunk or retargets a jump for good, so it terminates.
	o1Phases = []phase{
		{name: "jump threading", run: (*optimizer).threadJumps},
		{name: "dead-code removal", run: (*optimizer).removeDeadCode},
	}
	// At O2 leaves are inlined first, so that the O1 phases clean up after
	// them, and the other O2 phases run once, in this order, behind O1.
	inlinePhase = phase{name: "leaf inlining", run: (*optimizer).inlineLeaves}
	o2Phases    = []phase{
		{name: "compare-jump fusion", run: (*optimizer).fuseCmpJump},
		{name: "compare-constant fusion", run: (*optimizer).fuseCmpConst},
		{name: "constant-operand fusion", run: (*optimizer).fuseConstOperand},
		{name: "step-branch fusion", run: (*optimizer).fuseStep},
		{name: "tail calls", run: (*optimizer).tailCalls},
	}
)

// jumpTargets returns, for each pc, whether some instruction jumps there:
// another predecessor may arrive with different register contents, so a
// fusion window may not span one.
func (o *optimizer) jumpTargets(ch *Chunk) []bool {
	t := cleared(&o.marks, len(ch.Code)+1)
	for i := range ch.Code {
		if a := ch.Code[i].target(); a != nil && *a >= 0 && int(*a) <= len(ch.Code) {
			t[*a] = true
		}
	}
	return t
}

// readsReg reports whether ins reads register reg itself. A thread body
// starts with a copy of its spawner's slot registers, which a spawning
// instruction does not count as reads: regLive never asks about a slot.
func readsReg(ins Instr, reg int32) bool {
	switch ins.Op.info().form {
	case fUnary, fBinaryK, fBinaryKL, fCmpJumpK, fReturn, fStoreCell:
		return ins.A == reg
	case fBinary, fCmpJump:
		return ins.A == reg || ins.B == reg
	case fJumpIf, fParFor:
		return ins.B == reg
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

// regLive reports whether some path from pc in f's chunk ch reads
// register reg before writing it. A slot register is always live: a later
// statement, or a thread body's copy, may read it.
func (o *optimizer) regLive(f *Func, ch *Chunk, pc int, reg int32) bool {
	if int(reg) < f.NumSlots {
		return true
	}
	code := ch.Code
	// Most temporaries are read, or written again, a few instructions on:
	// follow straight-line code before paying for a visited set.
	for ; pc < len(code); pc++ {
		ins := &code[pc]
		if readsReg(*ins, reg) {
			return true
		}
		if writesReg(*ins, reg) {
			return false
		}
		if next, n := successors(ins, pc); n != 1 || next[0] != pc+1 {
			break
		}
	}
	seen := cleared(&o.seen, len(code))
	o.stack = append(o.stack[:0], pc)
	for len(o.stack) > 0 {
		p := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		if p < 0 || p >= len(code) || seen[p] {
			continue
		}
		seen[p] = true
		ins := code[p]
		if readsReg(ins, reg) {
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
	case OpReturn, OpReturnNone, OpTailCall:
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

// removeDeadCode deletes instructions unreachable from the chunk entry,
// and jumps to the next instruction.
func (o *optimizer) removeDeadCode(_ *Func, ch *Chunk) bool {
	code := ch.Code
	if len(code) == 0 {
		return false
	}
	reach := cleared(&o.marks, len(code))
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
	for pc, ins := range code {
		// A jump over dead code targets pc+1 once that code goes, and the
		// next round of the O1 fixpoint deletes it.
		toNext := ins.Op == OpJump && int(ins.A) == pc+1
		if !reach[pc] && ins.Op != OpNop || toNext {
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
		if _, n := successors(&ins, pc); n != 1 || ins.Op == OpJump || readsReg(ins, reg) || writesReg(ins, reg) {
			return -1
		}
	}
	return -1
}

// fuseCmpConst folds a constant right operand into a compare-jump produced
// by fuseCmpJump: the typed forms become their constant form, and
// OpCmpJump OpCmpConstJump with the same C.
func (o *optimizer) fuseCmpConst(f *Func, ch *Chunk) bool {
	targets := o.jumpTargets(ch)
	code := ch.Code
	changed := false
	for pc := range code {
		ins := code[pc]
		if ins.Op.info().form != fCmpJump || ins.A == ins.B { // a degenerate k<k stays
			continue
		}
		def := o.constOperand(f, ch, targets, pc, ins.B)
		if def < 0 {
			continue
		}
		fused := Instr{Op: ins.Op + cmpJumpK, Dst: ins.Dst, A: ins.A, B: code[def].A}
		if ins.Op == OpCmpJump {
			fused.Op, fused.C = OpCmpConstJump, ins.C
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
// consuming it: an arithmetic one becomes Dst = A op K, and an array store
// of a constant setidx.ak. The fused instruction keeps the consumer's
// source position so a runtime error (an index out of range) reports what
// O0 reports. With a variable slot as both source and destination the
// arithmetic form is the load-arith-store superinstruction of the hot loop
// shapes (`i = i + 1`, `s = s % 1000003`).
//
// A typed instruction becomes the constant form of its operator (add.ik,
// mod.rk). A constant on the left of + or * swaps to the right, and one on
// the left of another operator stays unfused, as does a div or mod whose
// constant divisor is zero: the constant-divisor forms do not test the
// divisor, so that one raises the error. An untyped instruction is a string
// +, which becomes OpArithConst or OpArithConstL.
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
		commutes := in.op == sem.Add || in.op == sem.Mul
		if constLeft && !commutes || (in.op == sem.Div || in.op == sem.Mod) && f.Consts[k].AsReal() == 0 {
			continue
		}
		fused := Instr{Op: OpArithConst, Dst: ins.Dst, A: reg, B: k, C: int32(ins.Op)}
		if constLeft {
			fused.Op = OpArithConstL
		}
		if in.kind != nil {
			fused.Op, fused.C = ins.Op+arithK, 0
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

// arithK is the distance from a typed arithmetic opcode to its constant
// form.
const arithK = OpAddIntK - OpAddInt

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

// plan orders the program's functions callees first and marks those that
// no recursive function can reach (into). It finds the strongly connected
// components of the call graph (Tarjan's algorithm), which come out callees
// first; a function is recursive when its component has a cycle. A
// component's callers come before it in the reverse order, so one pass
// over that carries the taint of recursion down to every function it
// reaches.
//
// Leaves are inlined only into the untainted functions, where the call
// depth is at most the number of functions: a chain of calls that reaches
// one repeats no function, or the function it repeats would be recursive
// and reach it. So the depth bound (rt.MaxCallDepth) that an inlined call
// no longer checks could not have refused it.
func (o *optimizer) plan() {
	n := len(o.prog.Funcs)
	ints := cleared(&o.ints, 4*n)
	g := callGraph{funcs: o.prog.Funcs, index: ints[:n], low: ints[n : 2*n], stack: ints[2*n : 2*n : 3*n], order: ints[3*n : 3*n : 4*n]}
	flags := cleared(&o.flags, 4*n)
	g.onStack, g.recursive, o.into, o.leaf = flags[:n], flags[n:2*n], flags[2*n:3*n], flags[3*n:]
	for v := range n {
		if g.index[v] == 0 {
			g.visit(int32(v))
		}
	}
	o.order = g.order
	for i := range o.into {
		o.into[i] = n < rt.MaxCallDepth
	}
	for i := n - 1; i >= 0; i-- {
		v := o.order[i]
		o.into[v] = o.into[v] && !g.recursive[v]
		if o.into[v] {
			continue
		}
		for _, ch := range o.prog.Funcs[v].Chunks {
			for j := range ch.Code {
				if ins := &ch.Code[j]; ins.Op == OpCall || ins.Op == OpTailCall {
					o.into[ins.A] = false
				}
			}
		}
	}
}

// callGraph is plan's working state: Tarjan's per-function index (0 when
// unvisited) and low link, its stack, and the components it has closed, in
// order.
type callGraph struct {
	funcs              []*Func
	index, low         []int32
	stack, order       []int32
	onStack, recursive []bool
	next               int32
}

func (g *callGraph) visit(v int32) {
	g.next++
	g.index[v], g.low[v] = g.next, g.next
	g.stack = append(g.stack, v)
	g.onStack[v] = true
	for _, ch := range g.funcs[v].Chunks {
		for i := range ch.Code {
			if op := ch.Code[i].Op; op != OpCall && op != OpTailCall {
				continue
			}
			switch w := ch.Code[i].A; {
			case g.index[w] == 0:
				g.visit(w)
				g.low[v] = min(g.low[v], g.low[w])
			case g.onStack[w]:
				g.low[v] = min(g.low[v], g.index[w])
				g.recursive[v] = g.recursive[v] || w == v
			}
		}
	}
	if g.low[v] != g.index[v] {
		return
	}
	top := len(g.stack) - 1
	for g.stack[top] != v {
		top--
	}
	for _, w := range g.stack[top:] {
		g.onStack[w] = false
		g.recursive[w] = g.recursive[w] || len(g.stack)-top > 1
		g.order = append(g.order, w)
	}
	g.stack = g.stack[:top]
}

// inlineMax bounds the optimised body of a small leaf, in instructions.
const inlineMax = 8

// smallLeaf reports whether f, optimised, may be inlined: one chunk of at
// most inlineMax instructions, no shared slot, no user call or backward
// branch (so no loop), and none of the forms importInstr does not map: its
// body is straight-line code and forward branches over registers of its
// own.
func smallLeaf(f *Func) bool {
	if len(f.Chunks) != 1 || f.Shared != nil || len(f.Chunks[0].Code) > inlineMax {
		return false
	}
	for pc, ins := range f.Chunks[0].Code {
		switch ins.Op.info().form {
		case fSpawn, fParFor, fLock, fLoadCell, fStoreCell, fStepJump:
			return false
		}
		if ins.Op == OpCall || ins.Op == OpTailCall {
			return false
		}
		if t := ins.target(); t != nil && int(*t) <= pc {
			return false
		}
	}
	return true
}

// inlineLeaves replaces each call of a small leaf in ch with the leaf's
// body, when no recursive function reaches f (plan). The leaf's
// parameters are the call's argument temporaries and its other registers
// fresh temporaries above ch's own, shared by every body inlined into ch:
// each writes a register before it reads it, as in the leaf. Its
// constants and element types join f's pools, its jump targets move with
// it, and it keeps its positions, so a runtime error in it reports what it
// reports when called. A ret becomes a move to the call's Dst, and a
// retnone of a value-returning leaf, which falls off its end, writes the
// result type's zero there; each then jumps past the body, except the last,
// which falls through.
func (o *optimizer) inlineLeaves(f *Func, ch *Chunk) bool {
	if !o.into[o.self] || !o.callsLeaf(ch) {
		return false
	}
	old, oldPos := ch.Code, ch.Pos
	code, pos := o.code[:0], o.pos[:0]
	emit := func(ins Instr, p token.Pos) { code, pos = append(code, ins), append(pos, p) }
	base := int32(f.NumSlots + ch.NumTemps)
	at, gat := o.remap[:0], o.gat[:0]
	for pc, call := range old {
		at = append(at, int32(len(code)))
		if call.Op != OpCall || !o.leaf[call.A] {
			emit(call, oldPos[pc])
			continue
		}
		g := o.prog.Funcs[call.A]
		body := &g.Chunks[0]
		np := int32(len(g.Params))
		ch.NumTemps = max(ch.NumTemps, int(base-np)-f.NumSlots+g.NumSlots+body.NumTemps)
		reg := func(r int32) int32 {
			if r < np {
				return call.B + r
			}
			return base + r - np
		}
		// gat maps the leaf's pcs to new ones; its last entry, past the
		// body, is where every return but the last jumps.
		start, end := len(code), int32(len(body.Code))
		gat = gat[:0]
		for gpc, ins := range body.Code {
			gat = append(gat, int32(len(code)))
			p := body.Pos[gpc]
			switch {
			case ins.Op != OpReturn && ins.Op != OpReturnNone:
				emit(importInstr(f, g, ins, reg), p)
				continue
			case call.Dst < 0:
			case ins.Op == OpReturn:
				emit(Instr{Op: OpMove, Dst: call.Dst, A: reg(ins.A)}, p)
			case g.Result.IsArray():
				emit(Instr{Op: OpArray, Dst: call.Dst, A: base, C: f.typeIndex(g.Result.Elem())}, p)
			default:
				emit(Instr{Op: OpConst, Dst: call.Dst, A: f.internConst(value.Zero(g.Result))}, p)
			}
			if int32(gpc) != end-1 {
				emit(Instr{Op: OpJump, A: end}, p)
			}
		}
		gat = append(gat, int32(len(code)))
		for i := start; i < len(code); i++ {
			if t := code[i].target(); t != nil {
				*t = gat[*t]
			}
		}
	}
	at = append(at, int32(len(code)))
	for pc := range old {
		if old[pc].target() != nil { // ch's own jump: a call has no target
			t := code[at[pc]].target()
			*t = at[*t]
		}
	}
	ch.Code, ch.Pos = append(old[:0], code...), append(oldPos[:0], pos...)
	o.code, o.pos, o.remap, o.gat = code, pos, at, gat
	return true
}

// callsLeaf reports whether ch calls a small leaf.
func (o *optimizer) callsLeaf(ch *Chunk) bool {
	for i := range ch.Code {
		if ins := &ch.Code[i]; ins.Op == OpCall && o.leaf[ins.A] {
			return true
		}
	}
	return false
}

// importInstr returns ins, an instruction of leaf g, as an instruction of
// f: its registers through reg, its constants and element types in f's
// pools. Its jump target is still g's. It maps every form smallLeaf
// accepts: a ret or retnone is the caller's to replace, and the rest have
// no register or pool operand.
func importInstr(f, g *Func, ins Instr, reg func(int32) int32) Instr {
	k := func(i int32) int32 { return f.internConst(g.Consts[i]) }
	switch ins.Op.info().form {
	case fConst:
		ins.Dst, ins.A = reg(ins.Dst), k(ins.A)
	case fUnary:
		ins.Dst, ins.A = reg(ins.Dst), reg(ins.A)
	case fBinary:
		ins.Dst, ins.A, ins.B = reg(ins.Dst), reg(ins.A), reg(ins.B)
	case fBinaryK, fBinaryKL:
		ins.Dst, ins.A, ins.B = reg(ins.Dst), reg(ins.A), k(ins.B)
	case fJumpIf:
		ins.B = reg(ins.B)
	case fCmpJump:
		ins.A, ins.B = reg(ins.A), reg(ins.B)
	case fCmpJumpK:
		ins.A, ins.B = reg(ins.A), k(ins.B)
	case fCall:
		if ins.Dst >= 0 {
			ins.Dst = reg(ins.Dst)
		}
		ins.B = reg(ins.B)
	case fSetIndex:
		ins.A, ins.B, ins.C = reg(ins.A), reg(ins.B), reg(ins.C)
	case fSetIndexK:
		ins.A, ins.B, ins.C = reg(ins.A), reg(ins.B), k(ins.C)
	case fArray:
		ins.Dst, ins.A, ins.C = reg(ins.Dst), reg(ins.A), f.typeIndex(g.Types[ins.C])
	case fForIter: // the state is two temporaries, so A+1 moves with A
		ins.Dst, ins.A = reg(ins.Dst), reg(ins.A)
	}
	return ins
}

// internConst returns the index of v in f's constant pool, which it joins
// unless a constant with its key (keyOf, as the compiler pools) is there.
func (f *Func) internConst(v value.Value) int32 {
	k := keyOf(v)
	for i, c := range f.Consts {
		if keyOf(c) == k {
			return int32(i)
		}
	}
	f.Consts = append(f.Consts, v)
	return int32(len(f.Consts) - 1)
}

// tailCalls turns a self call in tail position in chunk 0 into tailcall:
// `call D, self, args; ret D`, or `call _, self, args; retnone` in a
// function without a result. The return behind it goes unless something
// jumps to it.
func (o *optimizer) tailCalls(f *Func, ch *Chunk) bool {
	if ch != &f.Chunks[0] {
		return false
	}
	var targets []bool // found when the first tail call is
	code := ch.Code
	for pc := 0; pc+1 < len(code); pc++ {
		call, ret := &code[pc], &code[pc+1]
		if call.Op != OpCall || call.A != o.self {
			continue
		}
		if !(ret.Op == OpReturn && call.Dst >= 0 && ret.A == call.Dst || ret.Op == OpReturnNone && f.Result == nil) {
			continue
		}
		if targets == nil {
			targets = o.jumpTargets(ch)
		}
		*call = Instr{Op: OpTailCall, Dst: -1, A: call.A, B: call.B, C: call.C}
		if !targets[pc+1] {
			code[pc+1] = Instr{Op: OpNop}
		}
	}
	if targets == nil {
		return false
	}
	o.compact(ch)
	return true
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
