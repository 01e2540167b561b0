package bytecode

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/stdlib"
	"repro/internal/token"
	"repro/internal/types"
	"repro/internal/value"
)

// Instr is one three-address instruction. Dst is the destination register
// (or a jump target's auxiliary operand for the fused compare-branches);
// the meaning of A, B and C depends on the opcode — see the Op constants.
// An instruction is 20 bytes (internal/value's TestLayout pins it).
type Instr struct {
	Op           Op
	Dst, A, B, C int32
}

// Chunk is a straight-line-with-jumps code sequence. Pos parallels Code,
// giving each instruction's source position for runtime errors. NumTemps
// is how many temporary registers one activation of the chunk needs,
// beyond the function's NumSlots variable registers.
type Chunk struct {
	Code     []Instr
	Pos      []token.Pos
	NumTemps int
}

// Func is one compiled function.
type Func struct {
	Name      string
	Params    []*types.Type // parameter types; parameters occupy slots [0, len(Params))
	NumSlots  int           // variable registers: parameters then locals, checker-assigned
	SlotTypes []*types.Type // static type per slot; the verifier's starting point
	// Shared marks, per slot, the variables the function's threads share
	// (ast.FuncDecl.Shared): each lives in a cell, reached only by
	// OpLoadCell/OpStoreCell, and no other instruction names its register.
	// Nil when no slot is shared.
	Shared    []bool
	Result    *types.Type
	Consts    []value.Value
	Types     []*types.Type // element-type table for OpArray
	SlotNames []string      // variable names per slot, for the disassembler
	Chunks    []Chunk       // Chunks[0] is the body; the rest are parallel sub-chunks
}

// Program is a fully compiled Tetra program.
type Program struct {
	Funcs     []*Func
	LockNames []string
	MainIndex int // -1 when the source has no main
}

// Compile lowers a checked AST program to register bytecode.
func Compile(p *ast.Program) (*Program, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	out := &Program{LockNames: p.LockNames, MainIndex: -1}
	// Parameter types of every function, indexed by function index, used to
	// widen int arguments into real parameters at call sites.
	params := make([][]*types.Type, len(p.Funcs))
	for i, f := range p.Funcs {
		pts := make([]*types.Type, len(f.Params))
		for j, prm := range f.Params {
			pts[j] = prm.Type
		}
		params[i] = pts
	}
	for i, f := range p.Funcs {
		cf, err := compileFunc(s, f, params, i)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, cf)
		if f.Name == "main" {
			out.MainIndex = i
		}
	}
	return out, nil
}

// A chunk is emitted into a chunkBuf and copied into its Chunk, at its
// final length, when it is complete: the buffers, not the chunks, grow.
type chunkBuf struct {
	code []Instr
	pos  []token.Pos
}

// scratch holds the chunkBufs of one compile, one per chunk being
// emitted at once (a parallel construct's arms are emitted inside the
// chunk that holds it), and the constant pool of the function being
// compiled with its index, and keeps them between compiles through
// scratchPool. A buffer or a pool longer than maxScratch entries is
// dropped.
type scratch struct {
	free   []*chunkBuf
	consts []value.Value
	pooled map[constKey]int32 // index in consts
}

// constKey identifies a constant with no conversion: by kind and payload
// bits (so 1 and 1.0 differ, 0.0 and -0.0 differ and a NaN is itself), a
// string by its content. Arrays are never constants.
type constKey struct {
	k value.Kind
	b uint64
	s string
}

func keyOf(v value.Value) constKey { return constKey{v.K, v.B, v.Str()} }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

const maxScratch = 1 << 14

func (s *scratch) take() *chunkBuf {
	n := len(s.free)
	if n == 0 {
		return new(chunkBuf)
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b
}

func (s *scratch) give(b *chunkBuf) {
	if cap(b.code) > maxScratch {
		return
	}
	b.code, b.pos = b.code[:0], b.pos[:0]
	s.free = append(s.free, b)
}

type fnCompiler struct {
	fn     *Func
	src    *ast.FuncDecl
	params [][]*types.Type // parameter types of every program function
	// cur is the chunk being emitted into, buf its code so far.
	cur     int
	buf     *chunkBuf
	scratch *scratch
	// nextTemp is the next free temporary register; temporaries live in
	// [fn.NumSlots, maxTemp) and are allocated with stack discipline —
	// each statement and each genExprTo call releases its temporaries on
	// exit, so the watermark tracks expression depth, not program size.
	nextTemp int
	maxTemp  int
	// lockStack tracks enclosing lock blocks within the current chunk so
	// early exits (return) can release them.
	lockStack []int32
	// loopLocks records how many locks were held when the innermost loop
	// was entered, so break/continue release only locks acquired inside it.
	loopLockBase []int
	// breaks/continues are the jump lists of each enclosing loop.
	breaks    []int32
	continues []int32
	// here is the list of jumps pending to the next instruction emitted,
	// dead reports that control cannot fall through to it, and lastTarget
	// is the last pc a forward jump was patched to.
	here       int32
	dead       bool
	lastTarget int32
}

func compileFunc(s *scratch, f *ast.FuncDecl, params [][]*types.Type, index int) (*Func, error) {
	if s.pooled == nil || len(s.consts) > maxScratch {
		s.consts, s.pooled = nil, make(map[constKey]int32)
	}
	s.consts = s.consts[:0]
	clear(s.pooled)
	c := &fnCompiler{
		params:  params,
		buf:     s.take(),
		scratch: s,
		fn: &Func{
			Name:      f.Name,
			Params:    params[index],
			NumSlots:  f.NumSlots,
			SlotTypes: f.SlotTypes,
			Shared:    f.Shared,
			Result:    f.Result,
			SlotNames: f.SlotNames,
			Chunks:    make([]Chunk, 1),
		},
		src:        f,
		nextTemp:   f.NumSlots,
		maxTemp:    f.NumSlots,
		here:       noJump,
		lastTarget: noJump,
	}
	c.zeroSlots()
	if err := c.block(f.Body); err != nil {
		return nil, err
	}
	c.emit(OpReturnNone, 0, 0, 0, 0, f.Pos())
	c.seal()
	c.fn.Chunks[0].NumTemps = c.maxTemp - c.fn.NumSlots
	if len(s.consts) > 0 {
		c.fn.Consts = slices.Clone(s.consts)
	}
	return c.fn, nil
}

// zeroSlots starts the variables a path may read before assigning them
// (ast.FuncDecl.ZeroSlots) at the zero value of their type, so that a
// register's kind is its variable's type from the first instruction on. An
// array zero is built by OpArray, fresh for each activation: arrays are
// references, and a pooled constant would be one array shared by all.
func (c *fnCompiler) zeroSlots() {
	pos := c.src.Pos()
	for _, slot := range c.src.ZeroSlots {
		dst, t := c.varDst(int32(slot)), c.src.SlotTypes[slot]
		if t.IsArray() {
			c.emit(OpArray, dst, int32(c.fn.NumSlots), 0, c.typeIndex(t.Elem()), pos)
		} else {
			c.emit(OpConst, dst, c.constIndex(value.Zero(t)), 0, 0, pos)
		}
		c.setVar(int32(slot), dst, pos)
	}
	c.nextTemp = c.fn.NumSlots
}

// Variables. A private variable is its slot register, in every chunk, and
// any instruction may name it. A shared one is a cell: a read is an
// OpLoadCell into a fresh temporary at the point the value is needed, a
// write an OpStoreCell of a temporary, and nothing else names the slot.

// SharedSlot reports whether variable slot is a cell.
func (f *Func) SharedSlot(slot int32) bool { return f.Shared != nil && f.Shared[slot] }

// getVar returns a register holding variable slot's current value.
func (c *fnCompiler) getVar(slot int32, pos token.Pos) int32 {
	if !c.fn.SharedSlot(slot) {
		return slot
	}
	t := c.temp()
	c.emit(OpLoadCell, t, slot, 0, 0, pos)
	return t
}

// varDst returns the register an instruction computing variable slot's
// next value should write: the slot itself, or for a cell a temporary
// that setVar then stores.
func (c *fnCompiler) varDst(slot int32) int32 {
	if !c.fn.SharedSlot(slot) {
		return slot
	}
	return c.temp()
}

// setVar makes reg's value the variable's: nothing to do when reg is the
// slot (a private variable's varDst), else a move or a cell store.
func (c *fnCompiler) setVar(slot, reg int32, pos token.Pos) {
	switch {
	case c.fn.SharedSlot(slot):
		c.emit(OpStoreCell, slot, reg, 0, 0, pos)
	case reg != slot:
		c.emit(OpMove, slot, reg, 0, 0, pos)
	}
}

func (c *fnCompiler) chunk() *Chunk { return &c.fn.Chunks[c.cur] }

// Emission. The compiler emits no instruction control cannot reach: after
// a ret, a retnone or a jump nothing is emitted until a jump lands on the
// next instruction (a label), and a block stops at such a statement. A
// forward jump is emitted before its target is known, into a jump list
// (noJump when empty): the pc of one jump, whose target field holds the
// pc of the next, as in Lua's lcode.c. The jumps that go to the next
// instruction wait in here; emit patches them to it, and jump hands them
// an unconditional jump's target instead of landing on it.

const noJump int32 = -1

// emit appends an instruction and returns its pc, or noJump when control
// cannot reach it.
func (c *fnCompiler) emit(op Op, dst, a, b, cc int32, pos token.Pos) int32 {
	if c.here != noJump {
		c.lastTarget = c.pc()
		c.patchTo(c.here, c.lastTarget)
		c.here = noJump
	} else if c.dead {
		return noJump
	}
	c.dead = op == OpReturn || op == OpReturnNone
	return c.put(Instr{Op: op, Dst: dst, A: a, B: b, C: cc}, pos)
}

func (c *fnCompiler) put(ins Instr, pos token.Pos) int32 {
	c.buf.code, c.buf.pos = append(c.buf.code, ins), append(c.buf.pos, pos)
	return c.pc() - 1
}

// emitJump emits conditional jump op and returns it as a jump list.
func (c *fnCompiler) emitJump(op Op, dst, a, b, cc int32, pos token.Pos) int32 {
	j := c.emit(op, dst, a, b, cc, pos)
	if j != noJump {
		*c.buf.code[j].target() = noJump
	}
	return j
}

// jump returns a jump list that holds an unconditional jump and the jumps
// pending to it, which take its target rather than land on it. The jump
// itself is emitted only when control falls through to it.
func (c *fnCompiler) jump(pos token.Pos) int32 {
	l := c.here
	c.here = noJump
	if !c.dead {
		c.join(&l, c.put(Instr{Op: OpJump, A: noJump}, pos))
		c.dead = true
	}
	return l
}

// join appends jump list l to list *to.
func (c *fnCompiler) join(to *int32, l int32) {
	for *to != noJump {
		to = c.buf.code[*to].target()
	}
	*to = l
}

// patchTo points every jump of list l at pc.
func (c *fnCompiler) patchTo(l, pc int32) {
	for l != noJump {
		t := c.buf.code[l].target()
		l, *t = *t, pc
	}
}

// label makes the jumps of list l go to the next instruction emitted. The
// last instruction emitted, if it is a jump of l, would jump to the next
// one; it goes, and control falls through instead.
func (c *fnCompiler) label(l int32) {
	if last := c.pc() - 1; last >= 0 && c.buf.code[last].Op == OpJump {
		if link := c.find(&l, last); link != nil {
			*link = *c.buf.code[last].target()
			c.buf.code, c.buf.pos = c.buf.code[:last], c.buf.pos[:last]
			c.dead = false
		}
	}
	c.join(&c.here, l)
}

// find returns the link of list *l that holds the jump at pc, or nil.
func (c *fnCompiler) find(l *int32, pc int32) *int32 {
	for ; *l != noJump; l = c.buf.code[*l].target() {
		if *l == pc {
			return l
		}
	}
	return nil
}

// reachable reports whether control can reach the next instruction.
func (c *fnCompiler) reachable() bool { return !c.dead || c.here != noJump }

// seal copies the emitted code into the current chunk and hands its
// buffer back.
func (c *fnCompiler) seal() {
	ch := c.chunk()
	ch.Code, ch.Pos = slices.Clone(c.buf.code), slices.Clone(c.buf.pos)
	c.scratch.give(c.buf)
	c.buf = nil
}

func (c *fnCompiler) pc() int32 { return int32(len(c.buf.code)) }

// temp allocates one temporary register.
func (c *fnCompiler) temp() int32 {
	t := c.nextTemp
	c.nextTemp++
	if c.nextTemp > c.maxTemp {
		c.maxTemp = c.nextTemp
	}
	return int32(t)
}

// tempN allocates n consecutive temporary registers (call-argument and
// array-element blocks).
func (c *fnCompiler) tempN(n int) int32 {
	t := c.nextTemp
	c.nextTemp += n
	if c.nextTemp > c.maxTemp {
		c.maxTemp = c.nextTemp
	}
	return int32(t)
}

// isTemp reports whether reg is a compiler temporary the current
// expression owns (as opposed to a variable slot another thread or a
// subexpression might read).
func (c *fnCompiler) isTemp(reg int32) bool { return int(reg) >= c.fn.NumSlots }

// constIndex interns v in the function's constant pool, reusing the index
// of an identical constant already pooled. The pool is built in the
// scratch and copied into Func.Consts once the function is compiled.
func (c *fnCompiler) constIndex(v value.Value) int32 {
	s := c.scratch
	k := keyOf(v)
	if i, ok := s.pooled[k]; ok {
		return i
	}
	i := int32(len(s.consts))
	s.consts = append(s.consts, v)
	s.pooled[k] = i
	return i
}

func (c *fnCompiler) typeIndex(t *types.Type) int32 { return c.fn.typeIndex(t) }

func (f *Func) typeIndex(t *types.Type) int32 {
	for i, existing := range f.Types {
		if types.Equal(existing, t) {
			return int32(i)
		}
	}
	f.Types = append(f.Types, t)
	return int32(len(f.Types) - 1)
}

// block compiles b's statements up to the first that control cannot
// reach: one after a return, a break or a continue.
func (c *fnCompiler) block(b *ast.Block) error {
	for _, s := range b.Stmts {
		if !c.reachable() {
			return nil
		}
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// stmt compiles one statement; all temporaries it allocates are released
// when it completes. Loop-carried state (for-in sequence and index) stays
// live exactly as long as the loop statement is being compiled.
func (c *fnCompiler) stmt(s ast.Stmt) error {
	base := c.nextTemp
	err := c.stmtInner(s)
	c.nextTemp = base
	return err
}

func (c *fnCompiler) stmtInner(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.ExprStmt:
		// Statement-position calls discard their value: Dst = -1.
		call := s.X.(*ast.CallExpr)
		return c.genCall(call, -1)

	case *ast.AssignStmt:
		return c.assign(s)

	case *ast.IfStmt:
		els, err := c.branch(s.Cond, false, s.Pos())
		if err != nil {
			return err
		}
		if err := c.block(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			c.label(els)
			return nil
		}
		end := c.jump(s.Pos())
		c.label(els)
		if err := c.block(s.Else); err != nil {
			return err
		}
		c.label(end)
		return nil

	case *ast.WhileStmt:
		// `while b: S` is `if b: (S; while b: S)`: the condition is
		// compiled twice, as the test on entry and as the test at the
		// bottom, which branches back to the body. An iteration is the body
		// and one test, and a continue goes to the test. `while true:` has
		// neither test, only the back-edge.
		exits, err := c.branch(s.Cond, false, s.Pos())
		if err != nil {
			return err
		}
		body := c.pc()
		c.pushLoop()
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.continueHere()
		again, err := c.branch(s.Cond, true, s.Pos())
		if err != nil {
			return err
		}
		c.patchTo(again, body)
		c.label(exits)
		c.popLoop()
		c.fuseStep()
		return nil

	case *ast.ForStmt:
		// Loop state lives in two consecutive temporaries private to this
		// activation: the sequence and the iteration index. In a chunk run
		// concurrently (a `for` inside `parallel for`), each thread
		// therefore iterates independently — the state can't race. foriter
		// takes the first element or leaves, and fornext, at the bottom,
		// takes the next one and branches back to the body.
		state := c.tempN(2)
		if err := c.genExprTo(s.Seq, state); err != nil {
			return err
		}
		c.emit(OpConst, state+1, c.constIndex(value.NewInt(0)), 0, 0, s.Pos())
		slot := int32(s.Var.Slot)
		elem := c.varDst(slot)
		exit := c.emitJump(OpForIter, elem, state, 0, 0, s.Pos())
		body := c.pc()
		c.setVar(slot, elem, s.Pos())
		c.pushLoop()
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.continueHere()
		c.emit(OpForNext, elem, state, body, 0, s.Pos())
		c.label(exit)
		c.popLoop()
		return nil

	case *ast.ReturnStmt:
		// Release any locks held in this chunk before leaving. The release
		// precedes evaluation of the return value, matching the
		// interpreter's unwind order.
		for i := len(c.lockStack) - 1; i >= 0; i-- {
			c.emit(OpLockRelease, 0, c.lockStack[i], 0, 0, s.Pos())
		}
		if s.Value == nil {
			c.emit(OpReturnNone, 0, 0, 0, 0, s.Pos())
			return nil
		}
		r, err := c.genExprAs(s.Value, c.fn.Result, s.Pos())
		if err != nil {
			return err
		}
		c.emit(OpReturn, 0, r, 0, 0, s.Pos())
		return nil

	case *ast.BreakStmt:
		c.releaseLoopLocks(s.Pos())
		c.join(&c.breaks[len(c.breaks)-1], c.jump(s.Pos()))
		return nil

	case *ast.ContinueStmt:
		c.releaseLoopLocks(s.Pos())
		c.join(&c.continues[len(c.continues)-1], c.jump(s.Pos()))
		return nil

	case *ast.PassStmt:
		return nil

	case *ast.LockStmt:
		c.emit(OpLockAcquire, 0, int32(s.LockIndex), 0, 0, s.Pos())
		c.lockStack = append(c.lockStack, int32(s.LockIndex))
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.lockStack = c.lockStack[:len(c.lockStack)-1]
		c.emit(OpLockRelease, 0, int32(s.LockIndex), 0, 0, s.Pos())
		return nil

	case *ast.ParallelStmt:
		first, err := c.arms(s.Body)
		c.emit(OpParallel, 0, first, int32(len(s.Body.Stmts)), 0, s.Pos())
		return err

	case *ast.BackgroundStmt:
		first, err := c.arms(s.Body)
		c.emit(OpBackground, 0, first, int32(len(s.Body.Stmts)), 0, s.Pos())
		return err

	case *ast.ParallelForStmt:
		seq, err := c.genExpr(s.Seq)
		if err != nil {
			return err
		}
		idx := len(c.fn.Chunks)
		c.fn.Chunks = append(c.fn.Chunks, Chunk{})
		if err := c.subChunk(idx, s.Pos(), func() error { return c.block(s.Body) }); err != nil {
			return err
		}
		c.emit(OpParFor, 0, int32(idx), seq, int32(s.Var.Slot), s.Pos())
		return nil
	}
	return fmt.Errorf("bytecode: unsupported statement %T", s)
}

// arms compiles each statement of a parallel or background block into a
// chunk of its own and returns the first. The chunks are consecutive, as
// OpParallel and OpBackground name them, because they are all added
// before any arm is compiled: a construct nested in an arm adds its chunks
// after them.
func (c *fnCompiler) arms(b *ast.Block) (int32, error) {
	first := len(c.fn.Chunks)
	c.fn.Chunks = append(c.fn.Chunks, make([]Chunk, len(b.Stmts))...)
	for i, child := range b.Stmts {
		if err := c.subChunk(first+i, child.Pos(), func() error { return c.stmt(child) }); err != nil {
			return 0, err
		}
	}
	return int32(first), nil
}

// subChunk compiles body into chunk ci, which is empty, and restores the
// emission context. Parallel bodies contain no break/continue/return that
// could escape (the checker rejects them), so loop and lock state start
// empty; the chunk gets its own temporary file. Its terminator is
// positioned at end, inside the construct, so a limit that trips there is
// reported where the thread was running.
func (c *fnCompiler) subChunk(ci int, end token.Pos, body func() error) error {
	saveCur, saveBuf := c.cur, c.buf
	saveNext, saveMax := c.nextTemp, c.maxTemp
	saveLocks := c.lockStack
	saveLoopBase := c.loopLockBase
	saveBreaks, saveConts := c.breaks, c.continues
	saveHere, saveDead, saveTarget := c.here, c.dead, c.lastTarget

	c.cur, c.buf = ci, c.scratch.take()
	c.nextTemp, c.maxTemp = c.fn.NumSlots, c.fn.NumSlots
	c.lockStack = nil
	c.loopLockBase = nil
	c.breaks, c.continues = nil, nil
	c.here, c.dead, c.lastTarget = noJump, false, noJump

	err := body()
	c.emit(OpReturnNone, 0, 0, 0, 0, end)
	c.seal()
	c.chunk().NumTemps = c.maxTemp - c.fn.NumSlots

	c.cur, c.buf = saveCur, saveBuf
	c.nextTemp, c.maxTemp = saveNext, saveMax
	c.lockStack = saveLocks
	c.loopLockBase = saveLoopBase
	c.breaks, c.continues = saveBreaks, saveConts
	c.here, c.dead, c.lastTarget = saveHere, saveDead, saveTarget
	return err
}

func (c *fnCompiler) pushLoop() {
	c.breaks = append(c.breaks, noJump)
	c.continues = append(c.continues, noJump)
	c.loopLockBase = append(c.loopLockBase, len(c.lockStack))
}

// continueHere lands the innermost loop's continues on its bottom test,
// which comes next.
func (c *fnCompiler) continueHere() {
	n := len(c.continues) - 1
	c.label(c.continues[n])
	c.continues = c.continues[:n]
}

// popLoop lands the innermost loop's breaks after it.
func (c *fnCompiler) popLoop() {
	n := len(c.breaks) - 1
	c.label(c.breaks[n])
	c.breaks = c.breaks[:n]
	c.loopLockBase = c.loopLockBase[:len(c.loopLockBase)-1]
}

// fuseStep merges a loop's induction step into its bottom test when they
// are the last two instructions emitted and no jump lands on the test (a
// continue would skip the step).
func (c *fnCompiler) fuseStep() {
	test := c.pc() - 1
	if test < 1 || c.lastTarget == test || c.find(&c.here, test) != nil {
		return
	}
	if fused, ok := stepJlt(c.buf.code[test-1], c.buf.code[test], test-1); ok {
		c.buf.code[test-1] = fused
		c.buf.code, c.buf.pos = c.buf.code[:test], c.buf.pos[:test]
	}
}

// stepJlt returns the stepjlt of add, at pc, and the test after it, when
// add is an add.ik or add.i that adds to a register and the test a
// backward jlt.ik or jlt.i of that register: the stepjlt of their operand
// kinds (add.i before jlt.ik has none). Neither the step nor the limit
// may be the register itself, which the fused instruction writes between
// reading the one and the other. An int add cannot raise, so the fused
// instruction keeps the add's position, inside the loop, where a step
// limit that trips there is reported.
func stepJlt(add, jlt Instr, pc int32) (Instr, bool) {
	if (add.Op != OpAddIntK && add.Op != OpAddInt) || add.Dst != add.A || add.Op == OpAddInt && add.B == add.A {
		return Instr{}, false
	}
	if (jlt.Op != OpJltIntK && jlt.Op != OpJltInt) || jlt.A != add.A || jlt.Dst > pc || jlt.Op == OpJltInt && jlt.B == add.A {
		return Instr{}, false
	}
	op := OpStepJltII
	switch {
	case add.Op == OpAddIntK && jlt.Op == OpJltIntK:
		op = OpStepJltKK
	case add.Op == OpAddIntK:
		op = OpStepJltKI
	case jlt.Op == OpJltIntK:
		return Instr{}, false
	}
	return Instr{Op: op, Dst: jlt.Dst, A: add.A, B: add.B, C: jlt.B}, true
}

// releaseLoopLocks emits releases for locks acquired inside the innermost
// loop, for break/continue paths.
func (c *fnCompiler) releaseLoopLocks(pos token.Pos) {
	if len(c.loopLockBase) == 0 {
		return
	}
	base := c.loopLockBase[len(c.loopLockBase)-1]
	for i := len(c.lockStack) - 1; i >= base; i-- {
		c.emit(OpLockRelease, 0, c.lockStack[i], 0, 0, pos)
	}
}

func (c *fnCompiler) assign(s *ast.AssignStmt) error {
	switch target := s.Target.(type) {
	case *ast.Ident:
		slot := int32(target.Slot)
		if s.Op == token.ASSIGN {
			_, lit := constant(s.Value, target.Type())
			if !c.fn.SharedSlot(slot) && (lit || !needWiden(s.Value, target.Type())) {
				return c.genExprToAs(s.Value, target.Type(), slot)
			}
			// Through a temporary: a cell is written by OpStoreCell only, and
			// a variable is never observed holding the unwidened int.
			r, err := c.genExprAs(s.Value, target.Type(), s.OpPos)
			if err != nil {
				return err
			}
			c.setVar(slot, r, s.Pos())
			return nil
		}
		// Augmented assignment: the value first, then the variable read,
		// the operation and the write. For a private variable that is one
		// arithmetic instruction reading and writing the slot — the
		// register IR's fused load-arith-store. The target is the left
		// operand, so only the value can be an int that widens, or a
		// constant operand.
		op := kernelOp(s.Kernel)
		r, k, err := c.operand(op, s.Value, operandType(s.Kernel, s.Value), s.OpPos)
		if err != nil {
			return err
		}
		cur := c.getVar(slot, target.Pos())
		c.emitArith(op, cur, cur, r, k, s.OpPos)
		c.setVar(slot, cur, s.Pos())
		return nil

	case *ast.IndexExpr:
		arr, err := c.genExpr(target.X)
		if err != nil {
			return err
		}
		idx, err := c.genExpr(target.Index)
		if err != nil {
			return err
		}
		if s.Op != token.ASSIGN {
			// Augmented index assignment evaluates the array and index
			// exactly once, into the registers the read and the write-back
			// both name. Nothing between the two can change them: Tetra has
			// no assignment expressions, a callee cannot touch its caller's
			// frame, no thread writes a private variable while another may
			// read it, and a cell's value arrives by OpLoadCell in a
			// temporary this statement owns.
			cur := c.temp()
			c.emit(indexOp(OpIndex, target.X), cur, arr, idx, 0, s.Pos())
			op := kernelOp(s.Kernel)
			r, k, err := c.operand(op, s.Value, operandType(s.Kernel, s.Value), s.OpPos)
			if err != nil {
				return err
			}
			c.emitArith(op, cur, cur, r, k, s.OpPos)
			c.emit(indexOp(OpSetIndex, target.X), 0, arr, idx, cur, s.Pos())
			return nil
		}
		// An array store of a literal is setidx.ak.
		if v, lit := constant(s.Value, target.Type()); lit && target.X.Type().IsArray() {
			c.emit(OpSetIndexArrK, 0, arr, idx, c.constIndex(v), s.Pos())
			return nil
		}
		r, err := c.genExprAs(s.Value, target.Type(), s.OpPos)
		if err != nil {
			return err
		}
		c.emit(indexOp(OpSetIndex, target.X), 0, arr, idx, r, s.Pos())
		return nil
	}
	return fmt.Errorf("bytecode: bad assignment target %T", s.Target)
}

// indexOp returns the array-typed form of OpIndex or OpSetIndex when the
// indexed expression x is statically an array, and op itself for a string.
func indexOp(op Op, x ast.Expr) Op {
	switch {
	case !x.Type().IsArray():
		return op
	case op == OpIndex:
		return OpIndexArr
	default:
		return OpSetIndexArr
	}
}

// operandType is the type kernel k reads operand e as: real for either
// side of a mixed int/real pair, so the int one widens, and e's own type
// otherwise.
func operandType(k ast.Kernel, e ast.Expr) *types.Type {
	if k.Operands == ast.IntReal || k.Operands == ast.RealInt {
		return types.RealType
	}
	return e.Type()
}

// needWiden reports whether a statically-int expression flows into a real
// context.
func needWiden(e ast.Expr, dst *types.Type) bool {
	return dst.Kind() == types.Real && e.Type().Kind() == types.Int
}

// constant returns the value of an expression the compiler loads with one
// OpConst — a literal, or the negation of a numeric one — as a value of
// type want: an int literal that flows into a real context is the real
// constant, so no OpToReal follows it.
func constant(e ast.Expr, want *types.Type) (value.Value, bool) {
	var v value.Value
	switch e := e.(type) {
	case *ast.IntLit:
		v = value.NewInt(e.Value)
	case *ast.RealLit:
		v = value.NewReal(e.Value)
	case *ast.StringLit:
		v = value.NewString(e.Value)
	case *ast.BoolLit:
		v = value.NewBool(e.Value)
	case *ast.UnaryExpr:
		x, ok := constant(e.X, e.X.Type())
		if !ok || e.Op == token.NOT {
			return v, false
		}
		v = sem.Neg(x)
	default:
		return v, false
	}
	if needWiden(e, want) {
		v = sem.ToReal(v)
	}
	return v, true
}

// genExpr evaluates e and returns the register holding its value. A
// private variable's identifier aliases its slot with no instruction
// emitted; any other expression lands in a fresh temporary.
func (c *fnCompiler) genExpr(e ast.Expr) (int32, error) {
	if id, ok := e.(*ast.Ident); ok {
		return c.getVar(int32(id.Slot), id.Pos()), nil
	}
	t := c.temp()
	if err := c.genExprTo(e, t); err != nil {
		return 0, err
	}
	return t, nil
}

// genExprAs is genExpr for a value that flows into a context of type want
// (a variable, an array element, a result): an int meeting a real is
// widened by an OpToReal at pos. Owned temporaries widen in place; a
// variable slot widens into a fresh temporary, so the variable itself is
// never written.
func (c *fnCompiler) genExprAs(e ast.Expr, want *types.Type, pos token.Pos) (int32, error) {
	if _, lit := constant(e, want); lit {
		t := c.temp()
		return t, c.genExprToAs(e, want, t)
	}
	r, err := c.genExpr(e)
	if err != nil || !needWiden(e, want) {
		return r, err
	}
	t := r
	if !c.isTemp(r) {
		t = c.temp()
	}
	c.emit(OpToReal, t, r, 0, 0, pos)
	return t, nil
}

// genExprTo evaluates e into register dst. Subexpression temporaries are
// released on return — only dst survives.
func (c *fnCompiler) genExprTo(e ast.Expr, dst int32) error {
	return c.genExprToAs(e, e.Type(), dst)
}

// genExprToAs is genExprTo for a value of type want. An int meeting a real
// is widened in dst, which must then be an owned temporary — unless e is
// constant, when dst is written once, with the real.
func (c *fnCompiler) genExprToAs(e ast.Expr, want *types.Type, dst int32) error {
	if v, ok := constant(e, want); ok {
		c.emit(OpConst, dst, c.constIndex(v), 0, 0, e.Pos())
		return nil
	}
	base := c.nextTemp
	err := c.genExprToInner(e, dst)
	c.nextTemp = base
	if err == nil && needWiden(e, want) {
		c.emit(OpToReal, dst, dst, 0, 0, e.Pos())
	}
	return err
}

func (c *fnCompiler) genExprToInner(e ast.Expr, dst int32) error {
	switch e := e.(type) {
	case *ast.Ident:
		op := OpMove
		if c.fn.SharedSlot(int32(e.Slot)) {
			op = OpLoadCell
		}
		c.emit(op, dst, int32(e.Slot), 0, 0, e.Pos())

	case *ast.ArrayLit:
		elem := e.Type().Elem()
		base := c.tempN(len(e.Elems))
		for i, el := range e.Elems {
			if err := c.genExprToAs(el, elem, base+int32(i)); err != nil {
				return err
			}
		}
		c.emit(OpArray, dst, base, int32(len(e.Elems)), c.typeIndex(elem), e.Pos())

	case *ast.RangeLit:
		lo, err := c.genExpr(e.Lo)
		if err != nil {
			return err
		}
		hi, err := c.genExpr(e.Hi)
		if err != nil {
			return err
		}
		c.emit(OpRange, dst, lo, hi, 0, e.Pos())

	case *ast.UnaryExpr:
		r, err := c.genExpr(e.X)
		if err != nil {
			return err
		}
		if e.Op == token.NOT {
			c.emit(OpNot, dst, r, 0, 0, e.Pos())
		} else {
			c.emit(OpNeg, dst, r, 0, 0, e.Pos())
		}

	case *ast.BinaryExpr:
		return c.binary(e, dst)

	case *ast.IndexExpr:
		x, err := c.genExpr(e.X)
		if err != nil {
			return err
		}
		idx, err := c.genExpr(e.Index)
		if err != nil {
			return err
		}
		c.emit(indexOp(OpIndex, e.X), dst, x, idx, 0, e.Pos())

	case *ast.CallExpr:
		return c.genCall(e, dst)

	default:
		return fmt.Errorf("bytecode: unsupported expression %T", e)
	}
	return nil
}

// branch compiles condition e as jumping code: control leaves by one of
// the jumps of the list it returns when e is sense, and falls through when
// it is not. `and`, `or` and `not` become branches and never a bool, and a
// comparison one compare-jump (cmpJump) at its operator's position, with a
// literal right operand in its pool form; any other condition is evaluated
// and tested by one jtrue or jfalse, positioned at pos, the statement's. A
// literal tests nothing: it is a jump, or no code.
func (c *fnCompiler) branch(e ast.Expr, sense bool, pos token.Pos) (int32, error) {
	switch e := e.(type) {
	case *ast.BoolLit:
		if e.Value == sense {
			return c.jump(pos), nil
		}
		return noJump, nil
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return c.branch(e.X, !sense, pos)
		}
	case *ast.BinaryExpr:
		if e.Op != token.AND && e.Op != token.OR {
			if !e.Kernel.Op.IsCompare() {
				break
			}
			base := c.nextTemp
			tx, ty := operandType(e.Kernel, e.X), operandType(e.Kernel, e.Y)
			x, err := c.genExprAs(e.X, tx, e.OpPos)
			if err != nil {
				return noJump, err
			}
			v, lit := constant(e.Y, ty)
			var y int32
			if lit {
				y = c.constIndex(v)
			} else if y, err = c.genExprAs(e.Y, ty, e.OpPos); err != nil {
				return noJump, err
			}
			c.nextTemp = base
			op, cc := cmpJump(e.Kernel, sense, lit)
			return c.emitJump(op, 0, x, y, cc, e.OpPos), nil
		}
		if (e.Op == token.OR) == sense {
			// Either operand being sense decides: test both for it.
			l, err := c.branch(e.X, sense, pos)
			if err != nil {
				return noJump, err
			}
			r, err := c.branch(e.Y, sense, pos)
			c.join(&l, r)
			return l, err
		}
		// The left operand decides only the other way, by skipping the right.
		skip, err := c.branch(e.X, !sense, pos)
		if err != nil {
			return noJump, err
		}
		l, err := c.branch(e.Y, sense, pos)
		c.label(skip)
		return l, err
	}
	base := c.nextTemp
	r, err := c.genExpr(e)
	if err != nil {
		return noJump, err
	}
	c.nextTemp = base // the tested temporary is dead past the branch
	op := OpJumpIfFalse
	if sense {
		op = OpJumpIfTrue
	}
	return c.emitJump(op, 0, 0, r, 0, pos), nil
}

// genCall compiles a call whose result lands in dst (-1 discards it).
// Arguments are evaluated left to right into a block of consecutive
// temporaries, widened in place where an int argument meets a real
// parameter.
func (c *fnCompiler) genCall(e *ast.CallExpr, dst int32) error {
	base := c.nextTemp
	argBase := c.tempN(len(e.Args))
	// A variadic or generic builtin has no parameter list and takes its
	// arguments as they are.
	var params []*types.Type
	if e.IsBuiltin {
		params = stdlib.ByID(e.Builtin).Params
	} else {
		params = c.params[e.FuncIndex]
	}
	for i, a := range e.Args {
		want := a.Type()
		if params != nil {
			want = params[i]
		}
		if err := c.genExprToAs(a, want, argBase+int32(i)); err != nil {
			return err
		}
	}
	if e.IsBuiltin {
		c.emit(OpCallBuiltin, dst, int32(e.Builtin), argBase, int32(len(e.Args)), e.Pos())
	} else {
		c.emit(OpCall, dst, int32(e.FuncIndex), argBase, int32(len(e.Args)), e.Pos())
	}
	c.nextTemp = base
	return nil
}

// binary compiles a binary expression into dst. Short-circuit and/or
// become conditional jumps over the right operand, with the result
// accumulating directly in dst; everything else is one three-address
// instruction, an arithmetic one in its constant form when an operand is a
// literal it can take (constArg).
func (c *fnCompiler) binary(e *ast.BinaryExpr, dst int32) error {
	if e.Op == token.AND || e.Op == token.OR {
		// The left operand's value IS the result when the jump is taken,
		// and the right operand's value otherwise — so evaluate both into
		// the same register. dst must be an owned temporary: writing a
		// variable slot before the right operand runs could be observed
		// (shared frames) or read back (the right operand may mention the
		// variable). Route through a temporary when it isn't.
		if !c.isTemp(dst) {
			t := c.temp()
			if err := c.binary(e, t); err != nil {
				return err
			}
			c.emit(OpMove, dst, t, 0, 0, e.Pos())
			return nil
		}
		if err := c.genExprTo(e.X, dst); err != nil {
			return err
		}
		op := OpJumpIfTrue
		if e.Op == token.AND {
			op = OpJumpIfFalse
		}
		j := c.emitJump(op, 0, 0, dst, 0, e.Pos())
		if err := c.genExprTo(e.Y, dst); err != nil {
			return err
		}
		c.label(j)
		return nil
	}

	// The int side of a mixed pair widens as it is read: a literal is the
	// real constant, a register one toreal. The operator's position is
	// recorded, not the expression start's, so a runtime error (division by
	// zero) points where the interpreter points.
	op := kernelOp(e.Kernel)
	tx, ty := operandType(e.Kernel, e.X), operandType(e.Kernel, e.Y)
	if _, lit := constant(e.Y, ty); !lit && (e.Kernel.Op == sem.Add || e.Kernel.Op == sem.Mul) {
		// A literal left of an operator that commutes is its constant
		// operand: a typed form takes it on the right, string + keeps it
		// on the left (arithkl).
		if k, ok := c.constArg(op, e.X, tx); ok {
			y, err := c.genExprAs(e.Y, ty, e.OpPos)
			if err != nil {
				return err
			}
			kop, cc := arithConst(op, true)
			c.emit(kop, dst, y, k, cc, e.OpPos)
			return nil
		}
	}
	x, err := c.genExprAs(e.X, tx, e.OpPos)
	if err != nil {
		return err
	}
	y, k, err := c.operand(op, e.Y, ty, e.OpPos)
	if err != nil {
		return err
	}
	c.emitArith(op, dst, x, y, k, e.OpPos)
	return nil
}

// operand evaluates e, the right operand of op, for emitArith: the pool
// index of a literal op takes as its constant operand (constArg), with
// k set, or the register holding e's value.
func (c *fnCompiler) operand(op Op, e ast.Expr, want *types.Type, pos token.Pos) (r int32, k bool, err error) {
	if r, k = c.constArg(op, e, want); k {
		return r, true, nil
	}
	r, err = c.genExprAs(e, want, pos)
	return r, false, err
}

// constArg returns the pool index of e when e is a literal that
// arithmetic opcode op can take as a constant operand: any but a zero
// divisor of div or mod, which stays in a register so that the unfused
// instruction raises. A comparison has no constant form outside a branch.
func (c *fnCompiler) constArg(op Op, e ast.Expr, want *types.Type) (int32, bool) {
	v, ok := constant(e, want)
	o := op.Operator()
	if !ok || o.IsCompare() || (o == sem.Div || o == sem.Mod) && v.AsReal() == 0 {
		return 0, false
	}
	return c.constIndex(v), true
}

// emitArith emits dst = a op b, where b is a register, or with k the pool
// index of op's constant right operand.
func (c *fnCompiler) emitArith(op Op, dst, a, b int32, k bool, pos token.Pos) {
	var cc int32
	if k {
		op, cc = arithConst(op, false)
	}
	c.emit(op, dst, a, b, cc, pos)
}
