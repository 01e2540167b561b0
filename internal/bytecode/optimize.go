package bytecode

// The optimizer: the two phases that need the call graph, run at O2 over
// what the compiler emits. Each preserves observable program behaviour
// exactly (output bytes, runtime errors and their positions, the recursion
// bound, parallel semantics). None of them evaluates an expression: the
// compiler loads a literal, negated or widened to real as its context
// asks, with one OpConst (compile.go's constant), and every operator runs
// at run time. The compiler's output needs no cleaning: it emits the
// constant forms, the compare-jumps and the fused loop steps, threads its
// jumps and emits nothing unreachable (compile.go's emit).
//
// Functions are optimised callees first, each chunk by the phases below in
// this order:
//
//  1. leaf inlining — a call of a small leaf (smallLeaf: one chunk, no
//                     shared slot, lock, user call or backward branch, at
//                     most inlineMax instructions once optimised itself)
//                     becomes the leaf's body over fresh temporaries, in a
//                     caller no recursive function can reach.
//  2. tail calls    — in chunk 0, a self call whose result the next
//                     instruction returns (or, without a result, a self
//                     call before retnone) becomes tailcall, which the VM
//                     runs in place.
//
// Each must change some benchmark or test program (TestEveryPhasePays).
// Every phase is differentially verified: the golden corpus and the
// cross-backend differential tests must produce byte-identical output at
// O0 and O2 (the parity harness, internal/parity, runs them at every
// level), and VerifyOptimize runs Verify behind each one.

import (
	"fmt"
	"sync"

	"repro/internal/rt"
	"repro/internal/token"
	"repro/internal/value"
)

// Optimization levels. Level 1, which the front doors still accept, runs
// the compiler's output as O0 does.
const (
	O0 = 0 // no optimization: execute exactly what the compiler emitted
	O2 = 2 // leaf inlining and tail calls

	// DefaultLevel is what the fast path uses unless told otherwise.
	DefaultLevel = O2
)

// Optimize runs the optimizer pipeline over every chunk of every function
// at the given level, mutating and returning p. A level below O2 is a
// no-op; levels above O2 clamp to O2.
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
	if level < O2 {
		return nil
	}
	o := optimizers.Get().(*optimizer)
	o.prog = p
	defer func() {
		o.prog = nil
		// As with the compiler's scratch, storage sized by an outsize
		// chunk or program is dropped, not kept.
		if max(cap(o.code), cap(o.ints)) <= maxScratch {
			optimizers.Put(o)
		}
	}()
	o.plan()
	for _, fi := range o.order {
		f := p.Funcs[fi]
		o.self = fi
		for ci := range f.Chunks {
			for _, ph := range phases {
				if !ph.run(o, f, &f.Chunks[ci]) || check == nil {
					continue
				}
				if err := check(ph, f, ci); err != nil {
					return err
				}
			}
		}
		o.leaf[fi] = smallLeaf(f)
	}
	return nil
}

// A phase rewrites one chunk and reports whether it changed anything.
type phase struct {
	name string
	run  func(o *optimizer, f *Func, ch *Chunk) bool
}

// phases are the optimizer's, in the order they run on a chunk.
var phases = []phase{
	{name: "leaf inlining", run: (*optimizer).inlineLeaves},
	{name: "tail calls", run: (*optimizer).tailCalls},
}

// An optimizer holds the working storage of one Optimize call, which
// every phase reuses instead of allocating its own per chunk or query.
// Between calls it waits in optimizers, so that a run of small programs
// (a compile service's usual load) allocates it once. code is sized by
// the largest chunk with a leaf inlined, and ints by the function count.
type optimizer struct {
	prog  *Program
	order []int32 // function indices, callees first
	self  int32   // the index of the function being optimised
	into  []bool  // per function: no recursive function reaches it, so leaves may be inlined into it
	leaf  []bool  // per function: optimised, and a small leaf
	ints  []int32 // plan's storage for order and its call graph
	flags []bool  // plan's storage for into, leaf and its call graph
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
	changed := false
	code := ch.Code
	for pc := 0; pc+1 < len(code); pc++ {
		call, ret := &code[pc], &code[pc+1]
		if call.Op != OpCall || call.A != o.self {
			continue
		}
		if !(ret.Op == OpReturn && call.Dst >= 0 && ret.A == call.Dst || ret.Op == OpReturnNone && f.Result == nil) {
			continue
		}
		*call = Instr{Op: OpTailCall, Dst: -1, A: call.A, B: call.B, C: call.C}
		if !jumpsTo(code, pc+1) {
			code[pc+1] = Instr{Op: OpNop}
		}
		changed = true
	}
	if changed {
		o.compact(ch)
	}
	return changed
}

// jumpsTo reports whether some instruction of code jumps to pc.
func jumpsTo(code []Instr, pc int) bool {
	for i := range code {
		if t := code[i].target(); t != nil && int(*t) == pc {
			return true
		}
	}
	return false
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
